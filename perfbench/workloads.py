"""The benchmark's workloads: figures, long_chain and artifacts.

Each workload generates its inputs from the seed when it is built (that
is the set-up the benchmark times) and then yields the ops of one pass.
An op's ``run`` is timed; its ``check`` runs afterwards, untimed, and
returns the name of the failed check or None.

* figures: every preset once per pass through the in-process CLI with
  ``--format csv+svg``, in a seed-permuted order; the traffic of the
  README, scripts/run_all_presets.py and the c9 acceptance test.
* long_chain: a Gaussian packet carrying amplitude along the whole chain,
  run through ``protocols.run_experiment`` with no artifacts at N = 301,
  3001 and 30001 sites, checked against the closed-form propagator.
* artifacts: trajectory CSV, SVG, metrics and manifest written and read
  back for preset-shaped trajectories that come from the closed-form
  propagator, so no package propagation runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

#: CLI subcommand of each experiment kind; figures groups its ops by it
_SUBCOMMANDS = {
    "dispersion_scan": "dispersion",
    "transport_single_site": "transport",
    "transport_gaussian": "transport",
    "storage": "storage",
    "reduction_check": "reduce-check",
}


@dataclass
class Op:
    name: str
    group: str
    run: object  # run(parts: dict) -> value; may store sub-timings in parts
    check: object  # check(value) -> failure name or None


class Figures:
    """Every preset through ``nhlattice.cli.main``, one pass = one of each."""

    name = "figures"
    reference_scaled = True

    def __init__(self, seed: int):
        from nhlattice import cli, configio, protocols

        self.cli, self.configio, self.protocols = cli, configio, protocols
        self.order = sorted(protocols.PRESETS)
        random.Random(seed).shuffle(self.order)

    def fingerprint(self) -> bytes:
        return "\n".join(self.order).encode()

    def ops(self, workdir: Path) -> list:
        return [self._op(name, workdir / name) for name in self.order]

    def _op(self, name: str, out: Path) -> Op:
        config = self.protocols.PRESETS[name]
        argv = [_SUBCOMMANDS[config.experiment], "--preset", name, "--out", str(out),
                "--format", "csv+svg"]

        def run(parts):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(argv), sink.getvalue()

        def check(value):
            code, output = value
            if code != 0:
                return f"exit{code}: {output.strip()}"
            return self._check_artifacts(name, config, out)

        return Op(name, argv[0], run, check)

    def _check_artifacts(self, name: str, config, out: Path):
        expected = {"manifest.cfg", "metrics.txt"}
        sweep = config.experiment == "storage" and bool(config.storage.xi_sweep)
        if config.experiment != "dispersion_scan":
            expected |= {"trajectory.csv", "heatmap.svg"}
        if config.experiment in ("dispersion_scan", "reduction_check") or sweep:
            expected.add("scan.csv")
        missing = sorted(f for f in expected
                         if not (out / f).is_file() or (out / f).stat().st_size == 0)
        if missing:
            return f"check:artifacts missing {','.join(missing)}"
        metrics = self.configio.read_metrics(out / "metrics.txt")
        if metrics.get("preset") != name:
            return "check:metrics preset tag"
        if metrics.get("edge_fraction_ok", True) is not True:
            return "check:edge_fraction_ok"
        if config.experiment == "reduction_check" and metrics.get("monotone_decreasing") is not True:
            return "check:monotone_decreasing"
        if sweep:
            effs = [metrics[f"sweep[{i}].efficiency"] for i in range(len(config.storage.xi_sweep))]
            if not all(b > a for a, b in zip(effs, effs[1:])):
                return "check:sweep efficiencies not increasing"
        return None


#: long_chain sizes and how often each runs per pass.  The first N=30001
#: run in a process takes about twice as long as later ones (glibc serves
#: its first large temporaries by mmap, and every page faults), and a run
#: fits one pass; three per pass make the median a warm run every time.
CHAIN_REPEATS = {301: 4, 3001: 2, 30001: 3}
CHAIN_PHYSICS = dict(kappa=1.0, beta=0.4, gamma=0.8, phi=math.pi / 2)
CHAIN_Q0 = -math.pi / 2
CHAIN_T_FINAL = 5.0
CHAIN_SAMPLE_DT = 0.25


class LongChain:
    """One Gaussian packet per chain length, centred with a seeded jitter."""

    name = "long_chain"
    #: N=30001 is bound by traffic to the shared L3, which the reference
    #: kernel does not follow: scaled by it, two five-seed spreads of
    #: pass_s read 0.11 and 0.31, against 0.16 and 0.06 unscaled
    reference_scaled = False

    def __init__(self, seed: int):
        import nhlattice as nh

        self.protocols = nh.protocols
        rng = random.Random(seed)
        self.times = np.arange(round(CHAIN_T_FINAL / CHAIN_SAMPLE_DT) + 1) * CHAIN_SAMPLE_DT
        self.configs = {}
        self.packets = {}
        for n_sites in CHAIN_REPEATS:
            origin = -(n_sites // 2)
            n0 = rng.randint(-3, 3)
            w0 = n_sites / 16.0
            self.packets[n_sites] = (origin, n0, w0)
            self.configs[n_sites] = nh.ExperimentConfig(
                experiment="transport_gaussian",
                beta=CHAIN_PHYSICS["beta"], gamma=CHAIN_PHYSICS["gamma"],
                phi=CHAIN_PHYSICS["phi"], kappa=CHAIN_PHYSICS["kappa"],
                chain_length=n_sites, index_origin=origin,
                excitation=nh.ExcitationSpec(kind="gaussian", n0=n0, w0=w0, q0=CHAIN_Q0),
                timing=nh.Timing(t_final=CHAIN_T_FINAL, sample_dt=CHAIN_SAMPLE_DT),
            )
        self._references = {}
        self.max_error = 0.0

    def fingerprint(self) -> bytes:
        from nhlattice import configio

        return "".join(configio.render_config(c) for c in self.configs.values()).encode()

    def reference(self, n_sites: int) -> np.ndarray:
        if n_sites not in self._references:
            origin, n0, w0 = self.packets[n_sites]
            labels = np.arange(origin, origin + n_sites)
            c0 = oracle.gaussian(labels, n0, w0, CHAIN_Q0)
            self._references[n_sites] = oracle.propagate(c0, self.times, **CHAIN_PHYSICS)
        return self._references[n_sites]

    def ops(self, workdir: Path) -> list:
        return [self._op(n) for n, repeats in CHAIN_REPEATS.items() for _ in range(repeats)]

    def _op(self, n_sites: int) -> Op:
        config = self.configs[n_sites]

        def run(parts):
            return self.protocols.run_experiment(config)

        def check(result):
            traj = result.trajectory
            if traj.amplitudes.shape != (len(self.times), n_sites) or \
                    not np.array_equal(traj.times, self.times):
                return "check:oracle shape"
            error = oracle.relative_error(traj.amplitudes, self.reference(n_sites))
            self.max_error = max(self.max_error, error)
            return None if error <= oracle.MAX_REL_ERROR else f"check:oracle error {error:.3g}"

        return Op(f"n{n_sites}", f"n{n_sites}", run, check)


#: (name, preset whose manifest is written, samples, first site, sites,
#: packet centre, phi or None for the Hermitian single-site kick); the
#: shapes of the presets' trajectories.  The seed moves only the packet
#: centre: phi sets how fast amplitudes decay, which changes the length of
#: the CSV numbers and the number of SVG cells, so it stays fixed.
ARTIFACT_CASES = (
    ("fig3", "fig3a", 241, -150, 301, 0, None),
    ("fig4", "fig4c", 121, -126, 193, -30, math.pi / 4),
    ("fig6", "fig6a", 241, -186, 313, -30, math.pi / 2),
    ("reduction", "reduction", 81, -101, 153, -25, math.pi / 2),
)
ARTIFACT_SAMPLE_DT = 0.25


@dataclass
class ArtifactCase:
    name: str
    trajectory: object
    config: object
    metrics: dict


class Artifacts:
    """Write and read back the artifact set of preset-shaped trajectories."""

    name = "artifacts"
    reference_scaled = True

    def __init__(self, seed: int):
        import nhlattice as nh
        from nhlattice import configio, heatmap

        self.configio, self.heatmap = configio, heatmap
        rng = random.Random(seed)
        self.cases = []
        for name, preset, n_samples, first, n_sites, centre, phi in ARTIFACT_CASES:
            labels = np.arange(first, first + n_sites)
            times = np.arange(n_samples) * ARTIFACT_SAMPLE_DT
            n0 = centre + rng.randint(-3, 3)
            if phi is None:
                # Hermitian phi = 0: parity leaves one exact zero per amplitude
                amps = oracle.single_site_hermitian(n0, labels, times, kappa=1.0)
            else:
                c0 = oracle.gaussian(labels, n0, 5.0, -math.pi / 2)
                amps = oracle.propagate(c0, times, kappa=1.0, beta=0.4, gamma=0.8, phi=phi)
            weights = np.abs(amps) ** 2
            norms = weights.sum(axis=1)
            traj = nh.Trajectory(times=times, amplitudes=amps, site_labels=labels,
                                 norm_series=norms, method_tag="rk4")
            config = nh.resolve_config(nh.preset_config(preset))
            centroids = weights @ labels / norms
            edge = float(np.max((weights[:, 0] + weights[:, -1]) / norms))
            metrics = {
                "preset": preset,
                "config_hash": configio.config_hash(configio.render_manifest(config, "rk4")),
                "experiment": config.experiment,
                "method_tag": "rk4",
                "centroid_series": tuple(float(x) for x in centroids),
                "velocity_estimate": float(np.polyfit(times, centroids, 1)[0]),
                "barrier_lo": n0,
                "norm_final": float(norms[-1]),
                "edge_fraction_max": edge,
                "edge_fraction_ok": edge <= 1e-6,
            }
            self.cases.append(ArtifactCase(name, traj, config, metrics))
        rng.shuffle(self.cases)

    def fingerprint(self) -> bytes:
        parts = []
        for case in self.cases:
            traj = case.trajectory
            parts += [case.name.encode(), traj.times.tobytes(), traj.site_labels.tobytes(),
                      traj.amplitudes.tobytes(), repr(case.metrics).encode(),
                      self.configio.render_manifest(case.config, "rk4").encode()]
        return b"\0".join(parts)

    def ops(self, workdir: Path) -> list:
        return [self._op(case, workdir / case.name) for case in self.cases]

    def _op(self, case: ArtifactCase, out: Path) -> Op:
        configio, heatmap = self.configio, self.heatmap

        def run(parts):
            out.mkdir()
            t0 = time.perf_counter()
            configio.write_trajectory_csv(case.trajectory, out / "trajectory.csv")
            svg = heatmap.render_heatmap(case.trajectory, title=case.name)
            configio.write_text_atomic(out / "heatmap.svg", svg)
            configio.write_metrics(case.metrics, out / "metrics.txt")
            manifest = configio.render_manifest(case.config, "rk4")
            configio.write_text_atomic(out / "manifest.cfg", manifest)
            t1 = time.perf_counter()
            back = configio.read_trajectory_csv(out / "trajectory.csv")
            metrics = configio.read_metrics(out / "metrics.txt")
            config = configio.read_config(out / "manifest.cfg")
            parts["write_s"] = t1 - t0
            parts["read_s"] = time.perf_counter() - t1
            return back, metrics, config, manifest, svg

        def check(value):
            back, metrics, config, manifest, svg = value
            traj = case.trajectory
            for field in ("times", "site_labels", "amplitudes"):
                a, b = getattr(traj, field), getattr(back, field)
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    return f"check:csv read-back {field}"
            if metrics != case.metrics:
                return "check:metrics read-back"
            if configio.render_manifest(config, "rk4") != manifest:
                return "check:manifest round trip"
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                return "check:svg document"
            return None

        return Op(case.name, case.name, run, check)


WORKLOADS = {w.name: w for w in (Figures, LongChain, Artifacts)}
