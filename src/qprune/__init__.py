"""Quaternion convolutional networks with structured filter pruning and
knowledge distillation, built on numpy."""

from .autodiff import (
    Loss,
    OptimState,
    Tape,
    TrainConfig,
    backward,
    binary_cross_entropy,
    cross_entropy,
    forward,
    inference,
    kl_divergence,
    mixup,
    one_hot,
    softmax,
    step,
    train_loop,
)
from .distill import KDConfig, distill_train, kd_total_loss, make_student_from_plan, softened_softmax
from .features import (
    LabeledDataset,
    MelSpectrogram,
    encode_quaternion_features,
    load_dataset,
    load_feature_file,
    save_dataset,
    save_feature_file,
    synth_dataset,
    wav_to_mel,
)
from .metrics import (
    EvalReport,
    average_precision,
    count_macs,
    count_params,
    fold_accuracy,
    mean_average_precision,
    timed_inference,
)
from .models import MODEL_NAMES, build_model, reinitialize
from .nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    FrozenModel,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ModelGraph,
    QBatchNorm2d,
    QConv2d,
    QLinear,
    ReLU,
    ResidualBlock,
    convert_architecture,
    freeze,
    load_checkpoint,
    model_input,
    qconv2d,
    qlinear,
    real_conv2d,
    save_checkpoint,
    split_activation,
    split_batchnorm,
    split_pool,
)
from .pruning import (
    PrunePlan,
    apply_prune,
    build_prune_plan,
    finetune,
    geometric_median,
    gm_importance,
    l1_importance,
    load_plan,
    op_importance,
    save_plan,
)
from .quaternion import QTensor, Quaternion, hamilton_product, qtensor_elementwise

__version__ = "0.1.0"
