"""Quaternion algebra tests against the signed 4x4 matrix form."""

import numpy as np
import pytest

from qprune.exceptions import ShapeError
from qprune.quaternion import (
    ONE,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    QTensor,
    Quaternion,
    hamilton_product,
    qtensor_abs_sum,
    qtensor_add,
    qtensor_elementwise,
    qtensor_scale,
)


def product_matrix(m):
    """Independent oracle: the left-multiplication matrix of a quaternion.

    Built directly from the defining relations (not from library tables):
    out = [[r, -i, -j, -k], [i, r, -k, j], [j, k, r, -i], [k, -j, i, r]] @ q.
    """
    r, i, j, k = m
    return np.array([
        [r, -i, -j, -k],
        [i, r, -k, j],
        [j, k, r, -i],
        [k, -j, i, r],
    ])


def test_identity_quaternion():
    q = Quaternion(0.3, -1.2, 4.0, 2.5)
    assert hamilton_product(ONE, q) == q


def test_basis_products():
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    for e in (UNIT_I, UNIT_J, UNIT_K):
        assert hamilton_product(e, e) == minus_one
    assert hamilton_product(UNIT_I, UNIT_J) == UNIT_K


def test_known_product():
    # (1,2,3,4) x (5,6,7,8); expected values recomputed with product_matrix.
    m = Quaternion(1, 2, 3, 4)
    q = Quaternion(5, 6, 7, 8)
    expected = product_matrix(m.as_array()) @ q.as_array()
    np.testing.assert_array_equal(expected, [-60.0, 12.0, 30.0, 24.0])
    assert hamilton_product(m, q).as_array().tolist() == expected.tolist()


def test_non_commutativity_witness():
    ij = hamilton_product(UNIT_I, UNIT_J).as_array()
    ji = hamilton_product(UNIT_J, UNIT_I).as_array()
    np.testing.assert_array_equal(ij, -ji)


def test_matches_matrix_form_random_pairs():
    rng = np.random.default_rng(70)
    for _ in range(1000):
        m, q = rng.normal(size=(2, 4))
        got = hamilton_product(Quaternion(*m), Quaternion(*q)).as_array()
        want = product_matrix(m) @ q
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_associativity_random_triples():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        a, b, c = (Quaternion(*v) for v in rng.normal(size=(3, 4)))
        left = hamilton_product(hamilton_product(a, b), c).as_array()
        right = hamilton_product(a, hamilton_product(b, c)).as_array()
        scale = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() / scale <= 1e-10


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Quaternion(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError):
        Quaternion(0, float("inf"), 0, 0)


class TestQTensor:
    def test_plane_shapes_must_match(self):
        with pytest.raises(ShapeError):
            QTensor.from_planes(np.zeros((2, 2)), np.zeros((2, 2)),
                                np.zeros((2, 2)), np.zeros((2, 3)))

    def test_add_zeros(self):
        z = QTensor.zeros(2, 3, 3)
        out = qtensor_add(z, z)
        np.testing.assert_array_equal(out.data, 0)

    def test_scale_identity(self):
        rng = np.random.default_rng(1)
        t = QTensor(rng.normal(size=(4, 2, 3, 3)))
        np.testing.assert_array_equal(qtensor_scale(t, 1.0).data, t.data)

    def test_abs_sum_all_minus_one(self):
        # four planes of two elements each, all -1 -> 8
        t = QTensor(-np.ones((4, 1, 2, 1)))
        assert qtensor_abs_sum(t) == 8.0

    def test_abs_sum_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 3, 5, 4))
        t = QTensor(data)
        direct = sum(abs(float(v)) for v in data.ravel())
        assert qtensor_abs_sum(t) == pytest.approx(direct, rel=1e-12)

    def test_shape_mismatch_add(self):
        with pytest.raises(ShapeError):
            qtensor_add(QTensor.zeros(1, 2, 2), QTensor.zeros(2, 2, 2))

    def test_elementwise_dispatch(self):
        t = QTensor.zeros(1, 2, 2)
        assert qtensor_elementwise("abs_sum", t) == 0.0
        with pytest.raises(ValueError):
            qtensor_elementwise("pow", t, 2)

    def test_elementwise_dispatch_to_each_op(self):
        t = QTensor(np.arange(16.0).reshape(4, 1, 2, 2))
        np.testing.assert_array_equal(qtensor_elementwise("add", t, t).data, 2 * t.data)
        np.testing.assert_array_equal(qtensor_elementwise("scale", t, -0.5).data, -0.5 * t.data)
        with pytest.raises(ValueError, match="single tensor"):
            qtensor_elementwise("abs_sum", t, t)

    @pytest.mark.parametrize("data,error", [
        (np.zeros((3, 1, 2, 2)), ShapeError), (np.zeros((4, 2, 2)), ShapeError),
        (np.full((4, 1, 1, 1), np.nan), ValueError),
    ], ids=["three_planes", "rank_3", "non_finite"])
    def test_data_is_four_finite_planes_of_maps(self, data, error):
        with pytest.raises(error):
            QTensor(data)

    def test_repr(self):
        t = QTensor.zeros(2, 3, 5)
        assert repr(t) == "QTensor(channels=2, height=3, width=5, dtype=float32)"
