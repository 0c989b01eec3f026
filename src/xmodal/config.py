"""Key=value configuration with a closed, documented key registry.

Files are UTF-8 lines of `namespace.key=value`; '#' starts a comment.
Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError, FormatError, read_utf8


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (default, parser, help)
DEFAULTS: dict[str, tuple] = {
    "data.dir": ("dataset", str, "dataset directory name inside the working directory"),
    "data.colors": ("red,green,blue,yellow", str, "comma-separated color names"),
    "data.shapes": ("circle,square,triangle,cross", str, "comma-separated shape names"),
    "data.image_size": (32, int, "square image resolution; must equal the top branch "
                                 "resolution, a multiple of 16"),
    "data.samples_per_class": (24, int, "generated samples per class"),
    "data.jitter_pos": (3.0, float, "position jitter in pixels, at most data.image_size / 2"),
    "data.jitter_scale": (0.15, float, "relative scale jitter, in [0, 1)"),

    "image_ae.branches": (3, int, "generator branches, at least 1; resolution doubles per branch"),
    "image_ae.base_res": (8, int, "resolution of the first branch, positive"),
    "image_ae.d_img": (64, int, "image embedding dimension"),
    "image_ae.d_c": (16, int, "conditioning variable dimension"),
    "image_ae.d_z": (16, int, "auxiliary noise dimension, at least 0"),
    "image_ae.gen_channels": (32, int, "generator feature channels at the first branch, positive"),
    "image_ae.disc_channels": (16, int, "discriminator base channels, positive"),
    "image_ae.batch": (16, int, "training batch size"),
    "image_ae.epochs": (60, int, "training passes over the dataset, positive"),
    "image_ae.lr": (2e-4, float, "optimizer step size"),
    "image_ae.beta1": (0.5, float, "first moment decay, in [0, 1)"),
    "image_ae.beta2": (0.999, float, "second moment decay, in [0, 1)"),
    "image_ae.lambda_kl": (1.0, float, "weight of the KL regularizer, at least 0"),
    "image_ae.lambda_rec": (1.0, float, "weight of the top-branch L1 reconstruction term, "
                                          "at least 0"),

    "text_ae.hidden": (50, int, "encoder hidden size per direction (embedding is twice this)"),
    "text_ae.embed_dim": (100, int, "token embedding dimension"),
    "text_ae.max_len": (24, int, "maximum caption length in tokens"),
    "text_ae.batch": (1, int, "training batch size"),
    "text_ae.epochs": (30, int, "training passes over the caption corpus, positive"),
    "text_ae.lr": (3e-3, float, "optimizer step size"),

    "mapper.kind": ("mmd", str, "mapper objective: gan or mmd"),
    "mapper.hidden": (256, int, "mapper perceptron hidden width"),
    "mapper.batch": (64, int, "embeddings per training batch"),
    "mapper.steps": (2000, int, "generator update steps"),
    "mapper.lr": (1e-4, float, "optimizer step size (generator and critic/discriminator)"),
    "mapper.n_critic": (5, int, "critic updates per generator update (mmd kind)"),
    "mapper.clip": (0.1, float, "critic weight clip bound"),
    "mapper.lambda_ae": (1.0, float, "critic autoencoding penalty weight, at least 0"),
    "mapper.critic_hidden": (64, int, "critic hidden width"),
    "mapper.critic_dim": (32, int, "critic feature dimension"),
    "mapper.kernel_learning": (True, _bool, "learn critic features; false = fixed kernel"),

    "eval.permutations": (500, int, "permutations for the two-sample test"),

    "translate.sample": (False, _bool, "sample the conditioning variable instead of using its mean"),
}


def resolve_config(path=None) -> dict:
    """Defaults overlaid with the file at `path` (when given)."""
    cfg = {key: default for key, (default, _, _) in DEFAULTS.items()}
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
        _, parser, _ = DEFAULTS[key]
        try:
            cfg[key] = parser(value)
        except ValueError as e:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key!r}: {e}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    if cfg["mapper.kind"] not in ("gan", "mmd"):
        raise ConfigError(f"mapper.kind must be 'gan' or 'mmd', got {cfg['mapper.kind']!r}")
    for key in ("data.samples_per_class", "image_ae.batch", "text_ae.batch", "mapper.steps",
                "eval.permutations", "image_ae.lr", "text_ae.lr", "mapper.lr", "mapper.clip",
                "image_ae.branches", "image_ae.base_res", "image_ae.disc_channels",
                "image_ae.d_img", "image_ae.d_c", "text_ae.hidden", "text_ae.embed_dim",
                "text_ae.max_len", "mapper.hidden", "mapper.critic_hidden", "mapper.critic_dim",
                "image_ae.epochs", "text_ae.epochs", "image_ae.gen_channels"):
        if not cfg[key] > 0:  # also rejects NaN
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    top = cfg["image_ae.base_res"] * 2 ** (cfg["image_ae.branches"] - 1)
    if top % 16 or top != cfg["data.image_size"]:
        raise ConfigError(f"data.image_size={cfg['data.image_size']} must equal the top branch "
                          f"resolution {top} (base_res * 2^(branches-1)), a multiple of 16")
    for key in ("image_ae.beta1", "image_ae.beta2"):
        if not 0 <= cfg[key] < 1:  # also rejects NaN
            raise ConfigError(f"{key} must lie in [0, 1), got {cfg[key]}")
    for key in ("image_ae.d_z", "image_ae.lambda_kl", "image_ae.lambda_rec", "mapper.lambda_ae"):
        if not cfg[key] >= 0:  # also rejects NaN
            raise ConfigError(f"{key} must be at least 0, got {cfg[key]}")
    if cfg["mapper.batch"] < 2:
        raise ConfigError(f"mapper.batch must be at least 2, got {cfg['mapper.batch']}")
    pos, scale = cfg["data.jitter_pos"], cfg["data.jitter_scale"]
    if not (0 <= 2 * pos <= cfg["data.image_size"] and 0 <= scale < 1):
        raise ConfigError(f"data.jitter_pos must lie in [0, data.image_size / 2] and "
                          f"data.jitter_scale in [0, 1), got {pos} and {scale}")


def section(cfg: dict, namespace: str) -> dict:
    """The keys of one namespace, without the `namespace.` prefix."""
    prefix = namespace + "."
    return {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}


def config_lines(cfg: dict) -> list[str]:
    return [f"{key}={cfg[key]}" for key in sorted(cfg)]


def help_text() -> str:
    lines = ["configuration keys (key=value files, '#' comments):"]
    for key in sorted(DEFAULTS):
        default, _, description = DEFAULTS[key]
        lines.append(f"  {key} (default {default}): {description}")
    return "\n".join(lines)
