"""lemscript benchmark: three seeded workloads, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload treebank_compare --seed 42 --seconds 25 --trace 0

`--workload` names one workload of `WORKLOADS`, or `all` to run every
workload in turn in this one process. The benchmark builds its inputs
from `--seed`, repeats one unit of work until `--seconds` have passed,
checks every unit's output and reports medians over the units.

With `--trace 0` the last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics, the metrics being the
end-to-end ones. With `--trace 1` the same units run in this process,
alternately plain and traced (see layers.py), and the metrics are the
per-layer ones plus trace.overhead_s; the spans of the first traced unit
are written to .perfbench/traces/. The line before the result holds the
run's provenance and the digests of its outputs.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the lemscript sources are not in the checkout.

Times: the benchmark pins itself, and so its child processes, to one
CPU, and runs a fixed reference loop on it before the first timed piece
of work and after each one. Every reported time is the measured wall
time scaled by REFERENCE_S over the mean of the loop's time on either
side of it: the speed of a shared host's CPU drifts by up to a quarter
within minutes, and the scaling takes that drift out. The unscaled
medians are in the details line.

Load: one process generates the inputs and calls the program
sequentially; at most one child process runs at a time, and no threads
are started.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"


@dataclass(frozen=True)
class Sizes:
    compare_train: int = 30_000  # tokens in the compare train corpus
    compare_test: int = 4_000    # tokens in the compare test corpus
    tag_train: int = 10_000      # tokens the tag_apply models are trained on
    tag_apply: int = 50_000      # tokens each tag_apply predict run labels
    fuzz_pairs: int = 2_500      # (form, lemma) pairs per fuzz_roundtrip unit
    setup_rounds: int = 5        # set-up repetitions whose median is setup_s


FULL = Sizes()

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# the reference loop's time on the CPU that scaled times refer to: about
# the speed of the 2-core 2.0 GHz Xeon VM the baseline was recorded on
REFERENCE_S = 0.055


class Clock:
    """Scales the time of each piece of work to the reference CPU speed.

    The reference loop is difflib.SequenceMatcher over fixed word pairs:
    pure-Python alignment code like lemscript's, whose speed follows the
    host's drift far more closely than a tight arithmetic loop does.
    """

    def __init__(self):
        rng = random.Random(0)
        self.pairs = [
            tuple("".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(3, 12))) for _ in "ab")
            for _ in range(3000)
        ]
        self.last = self.reference_loop()
        self.loop_times: list[float] = []

    def reference_loop(self) -> float:
        """Time the fixed reference work: the CPU's speed right now."""
        started = time.perf_counter()
        for a, b in self.pairs:
            difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
        return time.perf_counter() - started

    def scale(self, seconds: float) -> float:
        """Scale a piece that just ended by the reference loop around it."""
        now = self.reference_loop()
        loop_s = (self.last + now) / 2
        self.last = now
        self.loop_times.append(loop_s)
        return seconds * REFERENCE_S / loop_s


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    work: Path
    expected: dict
    clock: Clock = field(default_factory=Clock)


@dataclass
class Unit:
    """One measured unit of work and what its output checks found."""

    wall_s: float            # measured
    ref_s: float             # scaled to the reference CPU speed
    ops: int                 # operations attempted
    rss_mb: float = 0.0
    bad_ops: int = 0         # operations that failed on their own
    observed: dict = field(default_factory=dict)  # digests and counts to compare
    problems: list = field(default_factory=list)  # failed self-checks


@dataclass
class Child:
    code: int
    wall_s: float
    ref_s: float
    rss_mb: float
    stdout: str
    stderr: str


# --- running the program -----------------------------------------------------

def run_child(argv: list[str], ctx: Context) -> Child:
    """Run `python argv...` in the work directory, lemscript importable; wait for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out_path, err_path = ctx.work / "child.stdout", ctx.work / "child.stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ctx.work, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        ctx.clock.scale(wall),
        usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_subprocess(argv: list[str], ctx: Context) -> Child:
    return run_child(["-m", "lemscript.cli", *argv], ctx)


def cli_inprocess(argv: list[str], ctx: Context) -> Child:
    """Call lemscript.cli.main in this process, as the traced run does."""
    from lemscript import cli

    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(ctx.work)
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - started
        os.chdir(previous)
    return Child(code, wall, ctx.clock.scale(wall), 0.0, out.getvalue(), err.getvalue())


SETUP_PROBE = """\
import time
started = time.perf_counter()
import lemscript.cli
from lemscript import schemes
from lemscript.model import Scheme
for scheme in Scheme:
    schemes.decode("Warmup", schemes.encode(scheme, "Warmup", "warm"))
print(time.perf_counter() - started)
"""


def probe_setup(ctx: Context) -> float:
    """A fresh process's import of lemscript plus one encode/decode per scheme."""
    child = run_child(["-c", SETUP_PROBE], ctx)
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout) * child.ref_s / child.wall_s


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# --- inputs ------------------------------------------------------------------

def seen_stems() -> list[str]:
    from synth import make_stems

    return make_stems(3, 9000, 3, 9)  # the ROADMAP north-star vocabulary


def mixed_stems() -> list[str]:
    """The north-star stems with every fourth Zipf rank given an unseen stem."""
    from synth import make_stems

    seen = seen_stems()
    known = set(seen)
    fresh = iter(s for s in make_stems(4, 3000, 3, 9) if s not in known)
    return [next(fresh) if rank % 4 == 3 else stem for rank, stem in enumerate(seen)]


def write_treebank(path: Path, n_tokens: int, seed: int, stems: list[str]) -> list[str]:
    """Write a synthetic CoNLL-U treebank; return its form column as TSV rows."""
    from synth import synthetic_corpus

    corpus = synthetic_corpus(n_tokens, seed=seed, stems=stems)
    forms = []
    with open(path, "w", encoding="utf-8") as fp:
        for sentence in corpus.sentences:
            for tok in sentence.tokens:
                fp.write(f"{tok.index}\t{tok.form}\t{tok.lemma}\t{tok.upos}\t_\t_\t_\t_\t_\t_\n")
                forms.append(tok.form)
            fp.write("\n")
            forms.append("")
    return forms


LATIN = "abdekmnorstvz"
CYRILLIC = "абвгдежзиклмно"
TURKISH = "çğışöüİı"
FUZZ_ALPHABET = LATIN + LATIN.upper() + CYRILLIC + CYRILLIC.upper() + TURKISH + "ÇĞŞÖÜ"


def fuzz_pairs(count: int, seed: int) -> list[tuple[str, str]]:
    """The acceptance criterion-2 mix: unrelated, shared-stem and casing pairs."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:
            form = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
            lemma = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
        elif roll < 0.80:
            stem = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 8)))
            form = (stem + "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 4))))[:12]
            lemma = (stem + "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 4))))[:12]
        else:
            lemma = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
            form = lemma if rng.random() < 0.5 else lemma.capitalize()
        pairs.append((form or "x", lemma or "y"))
    return pairs


# --- workloads ---------------------------------------------------------------

class TreebankCompare:
    """`lemscript compare` on the north-star synthetic treebank, one process per unit."""

    name = "treebank_compare"
    argv = ["compare", "train.conllu", "test.conllu", "--out", "report.json"]

    def prepare(self, ctx: Context) -> None:
        train = write_treebank(ctx.work / "train.conllu", ctx.sizes.compare_train, ctx.seed,
                               seen_stems())
        test = write_treebank(ctx.work / "test.conllu", ctx.sizes.compare_test, ctx.seed + 1,
                              mixed_stems())
        self.tokens = (sum(1 for f in train if f), sum(1 for f in test if f))
        self.items = sum(self.tokens)

    def setup(self, ctx: Context, run_cli) -> tuple[float, int, int]:
        return 0.0, 0, 0

    def unit(self, ctx: Context, run_cli, tracer) -> Unit:
        report_path = ctx.work / "report.json"
        report_path.unlink(missing_ok=True)
        child = run_cli(self.argv, ctx)
        unit = Unit(child.wall_s, child.ref_s, ops=1, rss_mb=child.rss_mb)
        if child.code != 0:
            unit.problems.append(f"compare exited {child.code}: {child.stderr.strip()[-300:]}")
            return unit
        report = report_path.read_bytes()
        unit.observed["report"] = sha(report)
        unit.problems += check_report(report, self.tokens)
        return unit


def check_report(report: bytes, tokens: tuple[int, int]) -> list[str]:
    """Self-checks on a compare report that hold for every seed."""
    try:
        data = json.loads(report)
        problems = []
        if (data["train"]["tokens"], data["test"]["tokens"]) != tokens:
            problems.append("report token counts differ from the inputs")
        for scheme, row in sorted(data["schemes"].items()):
            if row["encode_failures"] != 0:
                problems.append(f"{scheme}: {row['encode_failures']} encode failures")
            for key in ("word_accuracy", "sentence_accuracy"):
                if not 0.0 <= row["baseline"][key] <= 1.0:
                    problems.append(f"{scheme}: {key} out of range")
        if len(data["schemes"]) != 3 or len(data["mcnemar"]) != 3:
            problems.append("report lacks a scheme or a McNemar pair")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


SCHEME_NAMES = ("udpipe", "ixapipes", "morpheus")
FALLBACK_LINE = re.compile(r"^(\d+) prediction\(s\) fell back to the identity lemma", re.M)


class TagApply:
    """Three `lemscript predict` runs, one per scheme, of models trained in set-up."""

    name = "tag_apply"

    def prepare(self, ctx: Context) -> None:
        write_treebank(ctx.work / "tagtrain.conllu", ctx.sizes.tag_train, ctx.seed, seen_stems())
        self.forms = write_treebank(ctx.work / "apply.conllu", ctx.sizes.tag_apply, ctx.seed + 1,
                                    mixed_stems())
        self.items = 3 * sum(1 for f in self.forms if f)
        self.models: dict[str, str] = {}

    def setup(self, ctx: Context, run_cli) -> tuple[float, int, int]:
        """Train the three models; fails when a model differs from an earlier round's."""
        seconds, failed = 0.0, 0
        for scheme in SCHEME_NAMES:
            model = ctx.work / f"model.{scheme}.json"
            child = run_cli(["train", "tagtrain.conllu", model.name, "--scheme", scheme], ctx)
            seconds += child.ref_s
            digest = sha(model.read_bytes()) if child.code == 0 else None
            if digest is None or self.models.setdefault(scheme, digest) != digest:
                failed += 1
        return seconds, len(SCHEME_NAMES), failed

    def unit(self, ctx: Context, run_cli, tracer) -> Unit:
        unit = Unit(0.0, 0.0, ops=0)
        for scheme in SCHEME_NAMES:
            pred = ctx.work / f"pred.{scheme}.tsv"
            pred.unlink(missing_ok=True)
            child = run_cli(["predict", f"model.{scheme}.json", "apply.conllu", pred.name], ctx)
            unit.wall_s += child.wall_s
            unit.ref_s += child.ref_s
            unit.rss_mb = max(unit.rss_mb, child.rss_mb)
            unit.ops += 1
            if child.code != 0:
                unit.problems.append(f"predict {scheme} exited {child.code}")
                continue
            text = pred.read_text(encoding="utf-8")
            match = FALLBACK_LINE.search(child.stderr)
            fallbacks = int(match.group(1)) if match else 0
            unit.observed[scheme] = sha(text)
            unit.observed[f"{scheme}.fallbacks"] = fallbacks
            unit.problems += [f"{scheme}: {p}" for p in check_predictions(text, self.forms,
                                                                          fallbacks)]
        return unit


def check_predictions(text: str, forms: list[str], fallbacks: int) -> list[str]:
    """Self-checks on a prediction TSV: one row per input token, in order."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = [line.split("\t") for line in lines]
    if [row[0] for row in rows] != forms:
        return ["prediction rows do not follow the input tokens"]
    # an empty lemma is the program's output, not a fault of the row: a
    # fallback label can delete every character of a short form
    if any(line and len(row) != 2 for line, row in zip(lines, rows)):
        return ["a prediction row lacks its lemma column"]
    identity = sum(1 for line, row in zip(lines, rows) if line and row[0] == row[1])
    if fallbacks > identity:
        return [f"{fallbacks} identity fallbacks reported but {identity} identity rows"]
    return []


class FuzzRoundtrip:
    """decode(encode(pair)) under all three schemes, in this process, no I/O."""

    name = "fuzz_roundtrip"

    def prepare(self, ctx: Context) -> None:
        from lemscript import schemes
        from lemscript.model import Scheme

        self.pairs = fuzz_pairs(ctx.sizes.fuzz_pairs, ctx.seed)
        self.items = 3 * len(self.pairs)
        for scheme in Scheme:  # warm the lazy case tables outside the timed region
            schemes.decode("Warmup", schemes.encode(scheme, "Warmup", "warm"))

    def setup(self, ctx: Context, run_cli) -> tuple[float, int, int]:
        return 0.0, 0, 0

    def unit(self, ctx: Context, run_cli, tracer) -> Unit:
        from lemscript import schemes
        from lemscript.model import Scheme

        texts: list[str] = []
        bad = 0
        started = time.perf_counter()
        for scheme in Scheme:
            for index, (form, lemma) in enumerate(self.pairs):
                if tracer is not None:
                    tracer.request = index
                try:
                    label = schemes.encode(scheme, form, lemma)
                    texts.append(label.text)
                    bad += schemes.decode(form, label) != lemma
                except Exception:  # a roundtrip that raises is a failed operation
                    texts.append("")
                    bad += 1
        wall = time.perf_counter() - started
        unit = Unit(wall, ctx.clock.scale(wall), ops=len(texts), bad_ops=bad,
                    rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        unit.observed["labels"] = sha("\n".join(texts))
        return unit


# fuzz_roundtrip first: its peak RSS is this process's, which the other
# workloads' inputs would raise when `--workload all` runs them before it
WORKLOADS = {w.name: w for w in (FuzzRoundtrip, TreebankCompare, TagApply)}


# --- measuring ---------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first: dict | None = None
    problems: list = field(default_factory=list)
    unscaled: dict = field(default_factory=dict)

    def check(self, unit: Unit, expected: dict) -> None:
        """Compare a unit's outputs with the recorded ones and with the first unit's."""
        if self.first is None and not unit.problems:
            self.first = unit.observed
        reference = self.first or {}
        problems = list(unit.problems)
        for key, value in unit.observed.items():
            if key in expected:
                if expected[key] != value:
                    problems.append(f"{key} is {value}, recorded {expected[key]}")
            elif reference.get(key, value) != value:
                problems.append(f"{key} changed between units: {reference[key]} -> {value}")
        self.attempted += unit.ops
        self.failed += unit.ops if problems else unit.bad_ops
        if unit.bad_ops and not problems:
            problems.append(f"{unit.bad_ops} operations failed")
        self.problems.extend(problems)
        del self.problems[10:]  # the first few say enough


def repeat_for(seconds: float, step) -> None:
    deadline = time.perf_counter() + seconds
    step()
    while time.perf_counter() < deadline:
        step()


def measure(workload, ctx: Context) -> tuple[dict, Tally]:
    """End-to-end metrics: set-up rounds, then plain units in child processes."""
    tally = Tally()
    ctx.clock = Clock()
    setups = []
    for _ in range(ctx.sizes.setup_rounds):
        seconds, attempted, failed = workload.setup(ctx, cli_subprocess)
        setups.append(probe_setup(ctx) + seconds)
        tally.attempted += attempted
        tally.failed += failed
    units: list[Unit] = []

    def step():
        unit = workload.unit(ctx, cli_subprocess, None)
        tally.check(unit, ctx.expected)
        units.append(unit)

    repeat_for(ctx.seconds, step)
    wall = statistics.median(u.ref_s for u in units)
    tally.unscaled = {
        "wall_s": statistics.median(u.wall_s for u in units),
        "reference_loop_s": statistics.median(ctx.clock.loop_times),
        "units": len(units),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": statistics.median(u.rss_mb for u in units),
    }
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, tally


def measure_traced(workload, ctx: Context) -> tuple[dict, Tally]:
    """Per-layer metrics: plain and traced units alternate in this process."""
    from layers import PER_LAYER, UNITS, LayerTrace

    ctx.clock = Clock()
    _, attempted, failed = workload.setup(ctx, cli_inprocess)
    tally = Tally(attempted, failed)
    plain, traced, values = [], [], []
    trace_path = OUT / "traces" / f"{workload.name}-seed{ctx.seed}.jsonl"

    def step():
        unit = workload.unit(ctx, cli_inprocess, None)
        tally.check(unit, ctx.expected)
        plain.append(unit.ref_s)
        layer = LayerTrace(span_cap=200_000 if not traced else 0)
        with layer.patched():
            unit = workload.unit(ctx, cli_inprocess, layer.tracer)
        tally.check(unit, ctx.expected)
        traced.append(unit.ref_s)
        scale = unit.ref_s / unit.wall_s
        values.append({k: v * scale if UNITS[k] == "s" else v for k, v in layer.values().items()})
        if len(traced) == 1:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            layer.tracer.write_spans(trace_path)

    repeat_for(ctx.seconds, step)
    out = {}
    for name, unit_name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit_name == "s":
            value = statistics.median(v[name] for v in values)
        else:
            value = values[0][name]
            if any(v[name] != value for v in values):
                tally.failed += 1
                tally.problems.append(f"{name} differs between traced units")
        out[name] = (value, unit_name)
    return out, tally


# --- reporting ---------------------------------------------------------------

def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, sizes: Sizes) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "sizes": asdict(sizes),
        "loadavg_start": os.getloadavg(),
    }


def run(names: list[str], seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run the named workloads; return the result object and the details."""
    for path in (str(HERE), str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    inputs = {k: v for k, v in asdict(sizes).items() if k != "setup_rounds"}
    by_seed = recorded["seeds"].get(str(seed), {}) if recorded["sizes"] == inputs else {}
    details = {"provenance": provenance(seed, sizes), "workloads": {}}
    details["provenance"]["pinned_cpu"] = min(os.sched_getaffinity(0))
    metrics, attempted, failed = {}, 0, 0
    work = OUT / f"work-{os.getpid()}"
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # the reference loop must share the program's CPU
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            ctx = Context(seed, seconds, sizes, work, by_seed.get(name, {}))
            workload = WORKLOADS[name]()
            workload.prepare(ctx)
            values, tally = (measure_traced if trace else measure)(workload, ctx)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
            attempted += tally.attempted
            failed += tally.failed
            details["workloads"][name] = {
                "recorded": bool(ctx.expected),
                "observed": tally.first,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "problems": tally.problems,
                "unscaled": tally.unscaled,
            }
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)
    details["provenance"]["loadavg_end"] = os.getloadavg()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "details": details}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lemscript" / "cli.py").is_file() or not (
        ROOT / "tests" / "synth.py"
    ).is_file():
        print(f"error: no lemscript sources under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcome = run(names, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps(outcome["details"], ensure_ascii=False, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
