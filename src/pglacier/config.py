"""Run configuration: a line-oriented ``key = value`` format.

Keys are dotted (section.name), values are scalars, space-separated
float lists or short spec strings; ``#`` starts a comment.  Every key
has a typed schema entry with a default, unknown or malformed keys
raise ConfigError naming the key and line, and the fully resolved
configuration can be echoed back out in a re-loadable, deterministic
form.

Coefficient fields are described by spec strings:

- a bare float: constant field,
- ``csv:PATH``: load a dof CSV,
- ``sine:base,amp,periods``: base + amp * sin(2*pi*periods*x/L),
- ``cosine:base,amp,periods``: base + amp * cos(2*pi*periods*x/L),

with x the node coordinate and L the slab length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldio import load_field_csv
from .forward import SolverConfig
from .inversion import OptimizationConfig
from .mesh import generate_slab_mesh, load_mesh, with_observed_span
from .spaces import Field, SpaceKind
from .tensor_ops import PhysicsParams


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message, key=None, line=None):
        prefix = ""
        if key is not None:
            prefix += "key '%s': " % key
        if line is not None:
            prefix = ("line %d: " % line) + prefix
        super().__init__(prefix + message)
        self.key = key
        self.line = line


def _positive(x):
    return x > 0.0


def _nonnegative(x):
    return x >= 0.0


# key -> (type tag, default, validator, description of the constraint);
# physics, solver and opt defaults are those of the dataclasses they build.
SCHEMA = {
    "mesh.source": ("choice", "slab", ("slab", "file"), ""),
    "mesh.path": ("str", "", None, ""),
    "mesh.length": ("float", 2.0, _positive, "must be > 0"),
    "mesh.height": ("float", 1.0, _positive, "must be > 0"),
    "mesh.nx": ("int", 16, lambda n: n >= 2, "must be >= 2"),
    "mesh.ny": ("int", 8, lambda n: n >= 2, "must be >= 2"),
    "mesh.bed_amplitude": ("float", 0.0, None, ""),
    "mesh.observed_xmin": ("float_or_none", None, None, ""),
    "mesh.observed_xmax": ("float_or_none", None, None, ""),
    "physics.p": ("float", PhysicsParams.p,
                  lambda v: 1.0 < v < 2.0, "must lie in (1, 2)"),
    "physics.s": ("float_or_none", PhysicsParams.s, None, ""),
    "physics.delta": ("float", PhysicsParams.delta, _positive, "must be > 0"),
    "physics.mu0": ("float", PhysicsParams.mu0, _positive, "must be > 0"),
    "physics.body_force_x": ("float", PhysicsParams.body_force[0], None, ""),
    "physics.body_force_y": ("float", PhysicsParams.body_force[1], None, ""),
    "physics.reg_rheology": ("float", PhysicsParams.reg_rheology,
                             _nonnegative, "must be >= 0"),
    "physics.reg_friction": ("float", PhysicsParams.reg_friction,
                             _nonnegative, "must be >= 0"),
    "physics.rheology_min": ("float", PhysicsParams.rheology_min,
                             _positive, "must be > 0"),
    "physics.rheology_max": ("float", PhysicsParams.rheology_max,
                             _positive, "must be > 0"),
    "physics.friction_max": ("float", PhysicsParams.friction_max,
                             _positive, "must be > 0"),
    "solver.newton_rtol": ("float", SolverConfig.newton_rtol, _positive, "must be > 0"),
    "solver.newton_atol": ("float", SolverConfig.newton_atol, _positive, "must be > 0"),
    "solver.max_newton": ("int", SolverConfig.max_newton,
                          lambda n: n >= 1, "must be >= 1"),
    "opt.max_iterations": ("int", OptimizationConfig.max_iterations,
                           lambda n: n >= 0, "must be >= 0"),
    "fields.rheology": ("str", "1.0", None, ""),
    "fields.friction": ("str", "0.5", None, ""),
    "observation.source": ("choice", "twin", ("twin", "file"), ""),
    "observation.path": ("str", "", None, ""),
    "observation.mode": ("choice", "full_vector",
                         ("full_vector", "tangential"), ""),
    "observation.noise_sigma": ("float", 0.0, _nonnegative, "must be >= 0"),
    "observation.rheology": ("str", "", None, ""),
    "observation.friction": ("str", "", None, ""),
    "run.seed": ("int", 0, lambda n: n >= 0, "must be >= 0"),
    "run.out": ("str", "out", None, ""),
    "taylor.h_values": ("floats", "1e-1 1e-2 1e-3 1e-4", _positive, "must be > 0"),
    "taylor.directions": ("int", 3, lambda n: n >= 1, "must be >= 1"),
    "verify.samples": ("int", 100000, lambda n: n >= 1, "must be >= 1"),
    "verify.p_values": ("floats", "1.2 1.3333333333333333 1.6 1.9",
                        lambda v: 1.0 < v <= 2.0, "must lie in (1, 2]"),
    "verify.delta_values": ("floats", "0 0.001 0.1 1", _nonnegative, "must be >= 0"),
    "verify.prime_delta_values": ("floats", "0.001 0.1 1", _positive, "must be > 0"),
}


def _convert(key, tag, text, extra, line):
    if tag == "float" or tag == "float_or_none":
        if tag == "float_or_none" and text.lower() == "none":
            return None
        try:
            value = float(text)
        except ValueError:
            raise ConfigError("expected a float, got %r" % text, key, line) from None
        if not math.isfinite(value):
            raise ConfigError("expected a finite float, got %r" % text, key, line)
        return value
    if tag == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError("expected an integer, got %r" % text, key, line) from None
    if tag == "choice":
        if text not in extra:
            raise ConfigError("expected one of %s, got %r"
                              % ("/".join(extra), text), key, line)
        return text
    return text


def parse_config_text(text):
    """Parse raw config text into a fully resolved key -> value dict.

    Every schema key is present in the result (defaults filled in);
    unknown keys, syntax errors, duplicates and range violations raise
    ConfigError.
    """
    resolved = {k: v[1] for k, v in SCHEMA.items()}
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value', got %r" % raw.strip(),
                              line=ln)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError("unknown config key", key, ln)
        if key in seen:
            raise ConfigError("duplicate key", key, ln)
        seen.add(key)
        tag, _, extra, constraint = SCHEMA[key]
        if tag == "floats":
            # a space-separated list, kept as text; each entry is checked
            # like a float key
            entries = value.split()
            if not entries:
                raise ConfigError("expected at least one float", key, ln)
            for entry in entries:
                if not extra(_convert(key, "float", entry, None, ln)):
                    raise ConfigError("value %s %s" % (entry, constraint), key, ln)
            resolved[key] = value
            continue
        converted = _convert(key, tag, value, extra, ln)
        if tag in ("float", "int") and extra is not None \
                and not extra(converted):
            raise ConfigError("value %s %s" % (value, constraint), key, ln)
        resolved[key] = converted
    _cross_validate(resolved)
    return resolved


def _cross_validate(cfg):
    p = cfg["physics.p"]
    s = cfg["physics.s"]
    if s is not None and not 1.0 < s <= p:
        raise ConfigError("must lie in (1, p] with p = %s" % repr(p),
                          "physics.s")
    c1, C1 = cfg["physics.rheology_min"], cfg["physics.rheology_max"]
    if not c1 < C1:
        raise ConfigError("lower bound %s must be below upper bound %s"
                          % (repr(c1), repr(C1)), "physics.rheology_min")
    if cfg["mesh.source"] == "file" and not cfg["mesh.path"]:
        raise ConfigError("required when mesh.source = file", "mesh.path")
    if cfg["observation.source"] == "file" and not cfg["observation.path"]:
        raise ConfigError("required when observation.source = file",
                          "observation.path")
    span = (cfg["mesh.observed_xmin"], cfg["mesh.observed_xmax"])
    if (span[0] is None) != (span[1] is None):
        raise ConfigError("observed_xmin and observed_xmax must be set "
                          "together", "mesh.observed_xmin")


@dataclass
class RunConfig:
    """Resolved configuration with typed accessors."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seed(self):
        return self.values["run.seed"]

    @property
    def out_dir(self):
        return self.values["run.out"]

    def _section(self, prefix):
        """Keyword arguments from the keys under ``prefix``, prefix stripped."""
        return {key[len(prefix):]: value for key, value in self.values.items()
                if key.startswith(prefix)}

    def physics(self):
        kwargs = self._section("physics.")
        kwargs["body_force"] = (kwargs.pop("body_force_x"),
                                kwargs.pop("body_force_y"))
        return PhysicsParams(**kwargs)

    def solver(self, trace_path=None):
        return SolverConfig(trace_path=trace_path, **self._section("solver."))

    def optimization(self):
        return OptimizationConfig(**self._section("opt."))

    def build_mesh(self):
        v = self.values
        if v["mesh.source"] == "file":
            return load_mesh(v["mesh.path"])
        amp = v["mesh.bed_amplitude"]
        length = v["mesh.length"]
        bed = None
        if amp != 0.0:
            bed = lambda x: amp * math.sin(2.0 * math.pi * x / length)
        mesh = generate_slab_mesh(length, v["mesh.height"], v["mesh.nx"],
                                  v["mesh.ny"], bed_profile=bed)
        if v["mesh.observed_xmin"] is not None:
            mesh = with_observed_span(mesh, v["mesh.observed_xmin"],
                                      v["mesh.observed_xmax"])
        return mesh

    def echo_lines(self):
        """Deterministic, re-loadable listing of every resolved value."""
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if val is None:
                text = "none"
            elif isinstance(val, float):
                text = repr(val)
            else:
                text = str(val)
            lines.append("%s = %s" % (key, text))
        return lines


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config file %s is not UTF-8 text: %s" % (path, exc)) from None
    return RunConfig(parse_config_text(text))


def config_from_text(text):
    return RunConfig(parse_config_text(text))


def parse_field_spec(spec, key):
    """Split a field spec string into a structured description."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty field spec", key)
    if spec.startswith("csv:"):
        path = spec[4:].strip()
        if not path:
            raise ConfigError("csv spec needs a path", key)
        return ("csv", path)
    for name in ("sine", "cosine"):
        if spec.startswith(name + ":"):
            parts = spec[len(name) + 1:].split(",")
            if len(parts) != 3:
                raise ConfigError("%s spec needs base,amp,periods" % name, key)
            try:
                base, amp, periods = (float(t) for t in parts)
            except ValueError:
                raise ConfigError("malformed %s spec %r" % (name, spec),
                                  key) from None
            return (name, base, amp, periods)
    try:
        return ("const", float(spec))
    except ValueError:
        raise ConfigError("unrecognized field spec %r" % spec, key) from None


def realize_field(spec, space, length, key="fields"):
    """Build a Field on ``space`` from a spec string.

    ``length`` scales the sine/cosine period to the domain; the x node
    coordinates drive the profile.
    """
    parsed = parse_field_spec(spec, key)
    if parsed[0] == "csv":
        return load_field_csv(space, parsed[1])
    if parsed[0] == "const":
        return Field(space, np.full(space.dof_count, parsed[1]))
    _, base, amp, periods = parsed
    if space.kind is SpaceKind.COEFF_OMEGA_P1:
        x = space.mesh.vertices[:, 0]
    elif space.kind is SpaceKind.COEFF_BASAL_P1:
        x = space.basal_coords[:, 0]
    else:
        raise ConfigError("field specs only target coefficient spaces", key)
    arg = 2.0 * np.pi * periods * x / length
    wave = np.sin(arg) if parsed[0] == "sine" else np.cos(arg)
    return Field(space, base + amp * wave)
