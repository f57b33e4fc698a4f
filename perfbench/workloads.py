"""The benchmark's workloads and the configs they generate from a seed.

Every workload drives one `frdlat` subcommand.  Its config is built from
the workload seed alone: a random SPD coefficient array
A = B^T B / n + 0.5 I, a random symmetric direction of operator norm 1,
and the sampler seed.  The CLI sees only the generated JSON.

Why these three:

- verify-S243: few large cubes on a large torus.  The real Cholesky
  branch of the projector dominates, then CSV writing.  No sampling, no
  contour work.
- sample-9x9: spectral sampling on a small torus (the shape of acceptance
  criterion 9).  RNG streams, colouring and correlation FFTs dominate;
  the projector is negligible, so a projector gain predicts no change.
- deriv-d3m2: the complex LU branch with many small projector calls,
  plus the contour nodes; covers d=3 and m=2.

`blas_threads` (capped at nproc) is the thread count of the BLAS library.
On a 2-core host shared with other loads, the run to run spread of wall_s
was measured with one and with two: verify-S243's large Cholesky
factorizations are faster and steadier on two threads, sample-9x9 barely
calls BLAS, and deriv-d3m2's many small LU solves spread twice as much on
two threads as on one, because every call waits for the slower core.

The untimed warm-up invocation runs the same subcommand on the same torus
with the `warmup` overrides: the cheapest inputs that still reach every
code path the timed invocations take (imports, LAPACK lookups, FFT plans).
It costs seconds instead of a full invocation, which leaves the run's
time for timed invocations.
"""

import json

import numpy as np

DEFAULT_SEED = 1

# Artifacts each subcommand must write; "{k}" runs over the scales 1..N+1.
ARTIFACTS = {
    "verify": ("verify_report.json", "diagnostics.json", "envelope.csv", "decay.csv",
               "kernel_k{k}.csv"),
    "sample": ("sample_report.json", "covariance_total.csv", "covariance_total_se.csv",
               "covariance_k{k}.csv", "covariance_k{k}_se.csv"),
    "deriv": ("deriv_report.json", "deriv_green.csv", "deriv_k{k}.csv"),
}


class Workload:
    def __init__(self, name, command, d, m, L, N, schedule=None, samples=None,
                 derivative=None, threads=None, blas_threads=2, warmup=None):
        self.name = name
        self.command = command
        self.d, self.m, self.L, self.N = d, m, L, N
        self.schedule = schedule
        self.samples = samples
        self.derivative = derivative or {}
        self.threads = threads
        self.blas_threads = blas_threads
        self.warmup = warmup or {}

    @property
    def report(self) -> str:
        """The JSON report whose "checks" must all be true."""
        return ARTIFACTS[self.command][0]

    def artifacts(self) -> list:
        out = []
        for name in ARTIFACTS[self.command]:
            if "{k}" in name:
                out += [name.format(k=k) for k in range(1, self.N + 2)]
            else:
                out.append(name)
        return out

    def config(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 0x66726C])
        n = self.m * self.d
        B = rng.standard_normal((n, n))
        A = B.T @ B / n + 0.5 * np.eye(n)
        A = 0.5 * (A + A.T)
        D = rng.standard_normal((n, n))
        D = 0.5 * (D + D.T)
        D = D / np.max(np.abs(np.linalg.eigvalsh(D)))
        doc = {
            "d": self.d,
            "m": self.m,
            "L": self.L,
            "N": self.N,
            "A": A.tolist(),
            "seed": int(rng.integers(0, 2**63)),
            "derivative": dict(self.derivative, direction=D.tolist()),
        }
        if self.schedule is not None:
            doc["schedule"] = list(self.schedule)
        if self.samples is not None:
            doc["samples"] = self.samples
        return doc

    def config_text(self, seed: int, warmup: bool = False) -> str:
        doc = self.config(seed)
        if warmup:
            doc.update(self.warmup)
        return json.dumps(doc, indent=1)

    def argv(self, config_path: str, out_dir: str, nproc: int) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.threads is not None:
            argv += ["--threads", str(min(self.threads, nproc))]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-S243", "verify", d=2, m=1, L=3, N=5,
                 warmup={"schedule": [None, None, None, 3, 3]}),
        Workload("sample-9x9", "sample", d=2, m=1, L=3, N=2, schedule=[3, 5],
                 samples=20000, threads=2, warmup={"samples": 512}),
        Workload("deriv-d3m2", "deriv", d=3, m=2, L=3, N=2, schedule=[3, 5],
                 derivative={"order": 2, "r": 0.5, "nodes": 32}, blas_threads=1),
    )
}
