"""Key=value configuration with a closed, documented key registry.

Files are UTF-8 lines of `namespace.key=value`; '#' starts a comment.
Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, FormatError, read_utf8


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class Domain(NamedTuple):
    """The values a key accepts: `text` for help and errors, `accepts` to test."""
    text: str
    accepts: Callable


# Comparisons are False for NaN and each upper bound excludes inf: both are rejected.
POSITIVE = Domain("positive and finite", lambda v: 0 < v < math.inf)
AT_LEAST_0 = Domain("finite and at least 0", lambda v: 0 <= v < math.inf)
AT_LEAST_2 = Domain("finite and at least 2", lambda v: 2 <= v < math.inf)
UNIT = Domain("in [0, 1)", lambda v: 0 <= v < 1)
MAPPER_KIND = Domain("gan or mmd", lambda v: v in ("gan", "mmd"))

# key -> (default, parser, domain or None, help)
DEFAULTS: dict[str, tuple] = {
    "data.dir": ("dataset", str, None, "dataset directory name inside the working directory"),
    "data.colors": ("red,green,blue,yellow", str, None, "comma-separated color names"),
    "data.shapes": ("circle,square,triangle,cross", str, None, "comma-separated shape names"),
    "data.image_size": (32, int, POSITIVE, "square image resolution (the top branch resolution, "
                                           "a multiple of 16)"),
    "data.samples_per_class": (24, int, POSITIVE, "generated samples per class"),
    "data.jitter_pos": (3.0, float, AT_LEAST_0, "position jitter in pixels (at most "
                                                "data.image_size / 2)"),
    "data.jitter_scale": (0.15, float, UNIT, "relative scale jitter"),

    "image_ae.branches": (3, int, POSITIVE, "generator branches; resolution doubles per branch"),
    "image_ae.base_res": (8, int, POSITIVE, "resolution of the first branch"),
    "image_ae.d_img": (64, int, POSITIVE, "image embedding dimension"),
    "image_ae.d_c": (16, int, POSITIVE, "conditioning variable dimension"),
    "image_ae.d_z": (16, int, AT_LEAST_0, "auxiliary noise dimension"),
    "image_ae.gen_channels": (32, int, POSITIVE, "generator feature channels at the first branch"),
    "image_ae.disc_channels": (16, int, POSITIVE, "discriminator base channels"),
    "image_ae.batch": (16, int, POSITIVE, "training batch size"),
    "image_ae.epochs": (60, int, POSITIVE, "training passes over the dataset"),
    "image_ae.lr": (2e-4, float, POSITIVE, "optimizer step size"),
    "image_ae.beta1": (0.5, float, UNIT, "first moment decay"),
    "image_ae.beta2": (0.999, float, UNIT, "second moment decay"),
    "image_ae.lambda_kl": (1.0, float, AT_LEAST_0, "weight of the KL regularizer"),
    "image_ae.lambda_rec": (1.0, float, AT_LEAST_0, "weight of the top-branch L1 "
                                                    "reconstruction term"),

    "text_ae.hidden": (50, int, POSITIVE, "encoder hidden size per direction "
                                          "(embedding is twice this)"),
    "text_ae.embed_dim": (100, int, POSITIVE, "token embedding dimension"),
    "text_ae.max_len": (24, int, POSITIVE, "maximum caption length in tokens"),
    "text_ae.batch": (1, int, POSITIVE, "training batch size"),
    "text_ae.epochs": (30, int, POSITIVE, "training passes over the caption corpus"),
    "text_ae.lr": (3e-3, float, POSITIVE, "optimizer step size"),

    "mapper.kind": ("mmd", str, MAPPER_KIND, "mapper objective"),
    "mapper.hidden": (256, int, POSITIVE, "mapper perceptron hidden width"),
    "mapper.batch": (64, int, AT_LEAST_2, "embeddings per training batch"),
    "mapper.steps": (2000, int, POSITIVE, "generator update steps"),
    "mapper.lr": (1e-4, float, POSITIVE, "optimizer step size (generator and "
                                         "critic/discriminator)"),
    "mapper.n_critic": (5, int, POSITIVE, "critic updates per generator update (mmd kind)"),
    "mapper.clip": (0.1, float, POSITIVE, "critic weight clip bound"),
    "mapper.lambda_ae": (1.0, float, AT_LEAST_0, "critic autoencoding penalty weight"),
    "mapper.critic_hidden": (64, int, POSITIVE, "critic hidden width"),
    "mapper.critic_dim": (32, int, POSITIVE, "critic feature dimension"),
    "mapper.kernel_learning": (True, _bool, None, "learn critic features; false = fixed kernel"),

    "eval.permutations": (500, int, POSITIVE, "permutations for the two-sample test"),

    "translate.sample": (False, _bool, None, "sample the conditioning variable instead of "
                                             "using its mean"),
}


def resolve_config(path=None) -> dict:
    """Defaults overlaid with the file at `path` (when given)."""
    cfg = {key: default for key, (default, _, _, _) in DEFAULTS.items()}
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_utf8(path)
    except FormatError as e:
        raise ConfigError(str(e)) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        _, parser, _, _ = DEFAULTS[key]
        try:
            cfg[key] = parser(value)
        except ValueError as e:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}: {e}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    for key, (_, _, domain, _) in DEFAULTS.items():
        if domain and not domain.accepts(cfg[key]):
            raise ConfigError(f"{key} must be {domain.text}, got {cfg[key]!r}")
    top = cfg["image_ae.base_res"] * 2 ** (cfg["image_ae.branches"] - 1)
    if top % 16 or top != cfg["data.image_size"]:
        raise ConfigError(f"data.image_size={cfg['data.image_size']} must equal the top branch "
                          f"resolution {top} (base_res * 2^(branches-1)), a multiple of 16")
    if 2 * cfg["data.jitter_pos"] > cfg["data.image_size"]:
        raise ConfigError(f"data.jitter_pos must be at most data.image_size / 2, "
                          f"got {cfg['data.jitter_pos']!r}")


def section(cfg: dict, namespace: str) -> dict:
    """The keys of one namespace, without the `namespace.` prefix."""
    prefix = namespace + "."
    return {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}


def config_lines(cfg: dict) -> list[str]:
    return [f"{key}={cfg[key]}" for key in sorted(cfg)]


def help_text() -> str:
    lines = ["configuration keys (key=value files, '#' comments):"]
    for key in sorted(DEFAULTS):
        default, _, domain, description = DEFAULTS[key]
        bound = f", {domain.text}" if domain else ""
        lines.append(f"  {key} (default {default}): {description}{bound}")
    return "\n".join(lines)
