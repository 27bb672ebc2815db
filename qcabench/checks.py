"""Checks of every study's output, run outside the timed region.

Each check compares with a computation made apart from the program (see
references.py) or with a property the method must have. A study whose
saved output is byte-identical to one already checked in full gets that
check's verdict; any other output is checked in full. CLI output that
differs between passes is itself a failure, because the CLI promises
byte-identical output for identical input.

A check returns a list of problems, each (kind, message). Kind
`spectral_norm` marks the known fault: power iteration in
`operators.spectral_norm` stops on a 1e-8 change between estimates and so
understates `splitting_error`.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import math
import os
import pickle
import re

import numpy as np

import references as ref
import workloads as wl

KNOWN_FAULT = "spectral_norm"

# Tolerances (README "References and tolerances").
FFT_TOL = 1e-12  # max |walk - FFT reference| per site and component
NORM_TOL = 1e-12  # norm drift of a unitary evolution
CONVERGE_RTOL = 1e-7  # converge l2_error vs closed-form single-mode error, relative
ORDER_RANGE = (0.7, 1.3)  # fitted refinement order of the converge study
PROB_SUM_TOL = 1e-12  # sum of prob over one time slice vs 1
PROB_RTOL = 1e-13  # prob vs re^2 + im^2 of its own row, relative
INIT_TOL = 1e-14  # first CSV slice vs the benchmark's own Gaussian
AMP_TOL = 1e-12  # sparse amplitudes vs references and round trips
PRUNE = 1e-14  # qcalab drops amplitudes of modulus at or below this
DEFECT_TOL = 1e-10  # localization defects, signalling distances
SPLIT_RTOL = 1e-10  # splitting_error vs expm/SVD reference, relative
SECOND_ORDER = (1.8, 2.2)  # local order of successive splitting errors
# A splitting error this far below the reference, relative, is the known
# spectral_norm fault (seen: 1.4e-6 to 1.8e-5 low); any other miss is not.
KNOWN_FAULT_RANGE = (-1e-4, 0.0)

CLI_OPS = {
    "converge", "walk", "trotter", "signal",
    "causality_dirac", "causality_dirac_nb0", "causality_xor", "localize_dirac", "localize_product",
}


class Checker:
    def __init__(self, workload: str, seed: int, rundir: str):
        self.rundir = rundir
        self.inputs = wl.make_inputs(workload, seed, rundir)
        self.verified: dict = {}  # op -> (digest, problems)

    def files(self, op: str) -> list:
        paths = [os.path.join(self.rundir, op + ".pkl")]
        if op == "walk":
            paths += [os.path.join(self.rundir, "walk.csv"), os.path.join(self.rundir, "walk.dump")]
        return paths

    def check(self, op: str) -> list:
        digest = hashlib.sha256()
        for path in self.files(op):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
        digest = digest.hexdigest()
        if op in self.verified and self.verified[op][0] == digest:
            return self.verified[op][1]
        problems = []
        if op in self.verified and op in CLI_OPS:
            problems.append(("identity", f"{op}: output differs from the first pass's"))
        try:
            with open(self.files(op)[0], "rb") as fh:
                output = pickle.load(fh)
            problems += getattr(self, "check_" + op)(output)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(("error", f"{op}: unreadable output: {exc!r}"))
        self.verified.setdefault(op, (digest, problems))
        return problems

    # -- walk_endpoint ----------------------------------------------------

    def check_converge(self, out) -> list:
        p = []
        argv = self.inputs["converge_argv"]
        mass = float(argv[argv.index("--mass") + 1])
        lines = out["stdout"].splitlines()
        if out["rc"] != 0 or lines[0] != "epsilon,l2_error,local_order" or len(lines) != len(wl.CONVERGE_EPS) + 1:
            return [("cli", f"converge: rc {out['rc']}, {len(lines)} lines")]
        for line, eps in zip(lines[1:], wl.CONVERGE_EPS):
            got_eps, err, _ = (float(v) for v in line.split(","))
            want = ref.single_mode_error(mass, wl.CONVERGE_MODE, wl.CONVERGE_GRID, eps, wl.CONVERGE_TIME)
            if got_eps != eps or abs(err - want) > CONVERGE_RTOL * want:
                p.append(("value", f"converge eps={eps}: l2_error {err!r} vs closed form {want!r}"))
        fitted = re.search(r"fitted order: (\S+)", out["stderr"])
        if not fitted or not ORDER_RANGE[0] <= float(fitted.group(1)) <= ORDER_RANGE[1]:
            p.append(("value", f"converge: fitted order outside {ORDER_RANGE}: {out['stderr']!r}"))
        return p

    def check_walk_evolve(self, out) -> list:
        f = self.inputs["field"]
        pp, pm = ref.walk_fft(f.psi_plus, f.psi_minus, self.inputs["mass"], self.inputs["eps"], wl.ENDPOINT_STEPS)
        dev = max(np.max(np.abs(out["psi_plus"] - pp)), np.max(np.abs(out["psi_minus"] - pm)))
        drift = abs(math.hypot(np.linalg.norm(out["psi_plus"]), np.linalg.norm(out["psi_minus"])) - f.norm())
        p = []
        if not dev <= FFT_TOL:
            p.append(("value", f"walk_evolve: deviation {dev:.3e} from the FFT reference"))
        if not drift <= NORM_TOL:
            p.append(("value", f"walk_evolve: norm drift {drift:.3e}"))
        return p

    # -- walk_trace -------------------------------------------------------

    def check_walk(self, out) -> list:
        argv = self.inputs["argv"]
        arg = lambda flag: argv[argv.index(flag) + 1]
        grid, steps = int(arg("--grid")), int(arg("--steps"))
        mass, eps = float(arg("--mass")), float(arg("--epsilon"))
        if out["rc"] != 0:
            return [("cli", f"walk: rc {out['rc']}: {out['stderr']!r}")]
        with open(arg("--out"), encoding="ascii") as fh:
            if fh.readline() != "t,x,re_plus,im_plus,re_minus,im_minus,prob\n":
                return [("value", "walk: wrong CSV header")]
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        if rows.shape != ((steps + 1) * grid, 7):
            return [("value", f"walk: {rows.shape[0]} rows, expected {(steps + 1) * grid}")]
        p = []
        slices = rows.reshape(steps + 1, grid, 7)
        if np.any(slices[:, :, 0] != eps * np.arange(steps + 1)[:, None]) or np.any(
            slices[:, :, 1] != eps * np.arange(grid)[None, :]
        ):
            p.append(("value", "walk: t or x column is not s*eps, k*eps"))
        re_p, im_p, re_m, im_m, prob = (slices[:, :, i] for i in range(2, 7))
        sums = np.abs(prob.sum(axis=1) - 1.0).max()
        if not sums <= PROB_SUM_TOL:
            p.append(("value", f"walk: prob of a time slice sums to 1 +- {sums:.3e}"))
        own = re_p**2 + im_p**2 + re_m**2 + im_m**2
        if not np.all(np.abs(prob - own) <= PROB_RTOL * own + 1e-300):
            p.append(("value", "walk: prob differs from re^2 + im^2 of its row"))
        _, center, sigma, mode, component = arg("--init").split(":")
        packet = wl.gaussian(grid, float(center), float(sigma), int(mode))
        zero = np.zeros(grid, dtype=np.complex128)
        init = (packet, zero) if component == "plus" else (zero, packet)
        first = (re_p[0] + 1j * im_p[0], re_m[0] + 1j * im_m[0])
        if max(np.max(np.abs(a - b)) for a, b in zip(first, init)) > INIT_TOL:
            p.append(("value", "walk: first slice is not the requested Gaussian"))
        last = (re_p[-1] + 1j * im_p[-1], re_m[-1] + 1j * im_m[-1])
        want = ref.walk_fft(init[0], init[1], mass, eps, steps)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(last, want))
        if not dev <= FFT_TOL:
            p.append(("value", f"walk: last slice deviates {dev:.3e} from the FFT reference"))
        p += self._check_dump(arg("--dump-state"), last)
        return p

    def _check_dump(self, path: str, last) -> list:
        """The dump is the final field as a one-particle state: cell 2k holds
        psi_plus(k), cell 2k+1 psi_minus(k); moduli at or below 1e-14 are pruned."""
        wire = np.empty(2 * len(last[0]), dtype=np.complex128)
        wire[0::2], wire[1::2] = last
        seen = np.zeros(len(wire), dtype=bool)
        with open(path, encoding="ascii") as fh:
            for line in fh:
                config, re_, im_ = line.rstrip("\n").split("\t")
                cell = re.fullmatch(r"\((-?\d+)\):1", config)
                if not cell or complex(float(re_), float(im_)) != wire[int(cell.group(1))]:
                    return [("value", f"walk: dump line {line!r} does not match the last slice")]
                seen[int(cell.group(1))] = True
        if np.any(~seen & (np.abs(wire) > PRUNE)):
            return [("value", "walk: dump misses amplitudes of the last slice")]
        return []

    # -- sparse_scatter ---------------------------------------------------

    def check_separated(self, out) -> list:
        inp = self.inputs
        singles = [
            ref.one_particle_evolve(x, inp["mass"], inp["eps"], wl.SEPARATED_STEPS) for x in inp["separated"]
        ]
        want = {}
        for combo in itertools.product(*(sorted(s.items()) for s in singles)):
            amp = math.prod(a for _, a in combo)
            if abs(amp) > PRUNE:
                want[tuple(((x,), 1) for x, _ in combo)] = amp
        support = math.prod(sum(1 for a in s.values() if a != 0) for s in singles)
        terms = out["terms"]
        p = []
        if len(terms) != support or set(terms) != set(want):
            p.append(("value", f"separated: {len(terms)} terms, one-particle supports give {support}"))
        else:
            dev = max(abs(terms[k] - a) for k, a in want.items())
            if not dev <= AMP_TOL:
                p.append(("value", f"separated: amplitudes deviate {dev:.3e} from one-particle products"))
        return p

    def _state(self, terms, alphabet_size: int):
        from qcalab.state import Alphabet, Configuration, SparseState

        return SparseState(Alphabet(alphabet_size), 1, {Configuration(1, c): a for c, a in terms.items()})

    def _round_trip(self, op: str, terms, pqca, initial, steps: int, particles: int) -> list:
        """Norm, particle number, and evolving back with U^dag in reverse phase order."""
        from qcalab.pqca import Pqca, ScatteringUnitary, pqca_evolve

        p = []
        norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        if not abs(norm - 1.0) <= NORM_TOL:
            p.append(("value", f"{op}: norm {norm!r}"))
        if any(len(c) != particles or any(s == 0 for _, s in c) for c in terms):
            p.append(("value", f"{op}: a term does not hold {particles} particles"))
        u = pqca.scattering
        back = Pqca(ScatteringUnitary(u.alphabet_size, 1, u.matrix.conj().T))
        last_phase = "even" if steps % 2 == 1 else "odd"
        returned = pqca_evolve(self._state(terms, u.alphabet_size), back, steps, last_phase).terms
        keys = set(returned) | set(initial.terms)
        dev = max(abs(returned.get(k, 0) - initial.terms.get(k, 0)) for k in keys)
        if not dev <= AMP_TOL:
            p.append(("value", f"{op}: evolving back misses the initial state by {dev:.3e}"))
        return p

    def check_collision(self, out) -> list:
        inp = self.inputs
        return self._round_trip(
            "collision", out["terms"], inp["dirac"], inp["collided_state"], wl.COLLISION_STEPS,
            particles=len(wl.COLLISION_OFFSETS),
        )

    def check_generic_d3(self, out) -> list:
        from qcalab.pqca import pqca_as_ring_operator
        from qcalab.state import RingSpace, densify

        inp = self.inputs
        p = self._round_trip("generic_d3", out["terms"], inp["d3"], inp["d3_state"], wl.D3_STEPS, particles=2)
        ring = RingSpace(wl.D3_RING, 3)
        phases = {ph: pqca_as_ring_operator(inp["d3"], ring, ph).matrix for ph in ("even", "odd")}
        v = densify(inp["d3_state"], ring)
        for s in range(wl.D3_STEPS):
            v = phases["even" if s % 2 == 0 else "odd"] @ v
        dev = np.max(np.abs(densify(self._state(out["terms"], 3), ring) - v))
        if not dev <= AMP_TOL:
            p.append(("value", f"generic_d3: deviates {dev:.3e} from the dense ring operator"))
        return p

    def check_crosscheck(self, out) -> list:
        return [] if out <= AMP_TOL else [("value", f"crosscheck: deviation {out!r}")]

    # -- dense_verify -----------------------------------------------------

    def _report(self, op: str, out, verdict: str) -> list:
        if out["rc"] != 0 or not out["stdout"].endswith(f"verdict: {verdict}\n"):
            return [("value", f"{op}: rc {out['rc']}, expected verdict {verdict}: {out['stdout'][-200:]!r}")]
        return []

    def check_causality_dirac(self, out) -> list:
        return self._report("causality_dirac", out, "pass")

    def check_causality_dirac_nb0(self, out) -> list:
        return self._report("causality_dirac_nb0", out, "fail")

    def check_causality_xor(self, out) -> list:
        p = self._report("causality_xor", out, "fail")
        last = re.search(rf"^cell {wl.XOR_LENGTH - 1}: offending image support (\[.*\])$", out["stdout"], re.M)
        if not last or 0 not in ast.literal_eval(last.group(1)):
            p.append(("value", "causality_xor: the last cell's observable does not reach cell 0"))
        return p

    def _localize(self, op: str, out, allowed) -> list:
        p = self._report(op, out, "pass")
        gates = re.findall(r"^cell (\d+): update-gate support (\{.*\}) within allowed", out["stdout"], re.M)
        if len(gates) != wl.LOCALIZE_CELLS:
            return p + [("value", f"{op}: {len(gates)} update gates reported")]
        for x, support in gates:
            cells = set(ast.literal_eval(support) or ())
            if not cells <= allowed(int(x)):
                p.append(("value", f"{op}: gate {x} has support {cells} outside {allowed(int(x))}"))
        for label in ("commutation residual", "product-identity defect", "HE-EG defect"):
            value = re.search(rf"^{label}: (\S+)$", out["stdout"], re.M)
            if not value or not float(value.group(1)) < DEFECT_TOL:
                p.append(("value", f"{op}: {label} not below {DEFECT_TOL}"))
        return p

    def check_localize_dirac(self, out) -> list:
        return self._localize("localize_dirac", out, lambda x: {x - x % 2, x - x % 2 + 1})

    def check_localize_product(self, out) -> list:
        return self._localize("localize_product", out, lambda x: {x})

    def check_trotter(self, out) -> list:
        argv = wl.TROTTER_ARGV
        cells = int(argv[argv.index("--cells") + 1])
        dts = [float(x) for x in argv[argv.index("--dt") + 1].split(",")]
        lines = out["stdout"].splitlines()
        if out["rc"] != 0 or lines[0] != "dt,splitting_error,order_estimate" or len(lines) != len(dts) + 1:
            return [("cli", f"trotter: rc {out['rc']}, {len(lines)} lines")]
        h = random_coupling_matrix(int(argv[argv.index("--seed") + 1]))
        p = []
        errs = []
        for line, dt in zip(lines[1:], dts):
            got_dt, err, _ = (float(v) for v in line.split(","))
            want = ref.splitting_error(h, cells, 2, dt)
            rel = (err - want) / want
            if got_dt != dt:
                p.append(("value", f"trotter: dt {got_dt!r} printed for {dt!r}"))
            elif not abs(rel) <= SPLIT_RTOL:
                kind = KNOWN_FAULT if KNOWN_FAULT_RANGE[0] < rel < KNOWN_FAULT_RANGE[1] else "value"
                p.append((kind, f"trotter dt={dt}: splitting_error {err!r} vs expm/SVD {want!r} ({rel:+.2e} relative)"))
            errs.append(err)
        for (dt0, e0), (dt1, e1) in zip(zip(dts, errs), zip(dts[1:], errs[1:])):
            order = math.log(e1 / e0) / math.log(dt1 / dt0)
            if not SECOND_ORDER[0] <= order <= SECOND_ORDER[1]:
                p.append(("value", f"trotter: errors at dt {dt0}, {dt1} fall at order {order:.3f}"))
        return p

    def check_signal(self, out) -> list:
        p = self._report("signal", out, "pass")
        values = {}
        for label in ("before step", "after step"):
            m = re.search(rf"^receiver trace distance {label}: (\S+)$", out["stdout"], re.M)
            values[label] = float(m.group(1)) if m else math.nan
        if not (values["before step"] < DEFECT_TOL and abs(values["after step"] - 1.0) < DEFECT_TOL):
            p.append(("value", f"signal: receiver distances {values}, expected 0 then 1"))
        return p


def random_coupling_matrix(seed: int) -> np.ndarray:
    """The `--hamiltonian random` coupling as qcalab documents it: a seeded
    complex Gaussian 4x4, Hermitian part, |00> row and column zeroed."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2.0
    h[0, :] = 0.0
    h[:, 0] = 0.0
    return h
