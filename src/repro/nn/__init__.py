"""Numpy-based neural network substrate for the GenDT reproduction.

The deployment environment for this reproduction has no deep-learning
framework available, so :mod:`repro.nn` implements the minimal stack GenDT
needs: a reverse-mode autodiff tensor, module containers, linear/LSTM layers,
dropout (with MC-dropout support), Adam/SGD, and the GAN/MSE/Gaussian losses.
"""

from .tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, ones, stack, where, zeros
from .anomaly import NumericalAnomalyError, detect_anomaly, is_anomaly_enabled
from .module import Module, Parameter
from .layers import MLP, Dropout, LeakyReLU, Linear, Sequential, Sigmoid, Tanh
from .lstm import LSTM, LSTMCell, LSTMRegressor, lstm_sequence
from .optim import SGD, Adam, Optimizer
from .losses import (
    bce_with_logits,
    discriminator_loss,
    gaussian_nll,
    generator_adversarial_loss,
    mae_loss,
    mse_loss,
)
from . import init

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "detect_anomaly",
    "is_anomaly_enabled",
    "NumericalAnomalyError",
    "Module",
    "Parameter",
    "Linear",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Sequential",
    "MLP",
    "LSTM",
    "LSTMCell",
    "LSTMRegressor",
    "lstm_sequence",
    "Optimizer",
    "SGD",
    "Adam",
    "mse_loss",
    "mae_loss",
    "bce_with_logits",
    "discriminator_loss",
    "generator_adversarial_loss",
    "gaussian_nll",
    "init",
]
