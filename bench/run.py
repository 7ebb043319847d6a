"""textgrade benchmark: seeded School-sized corpus, three closed-loop workloads.

    python3 bench/run.py --workload classify-batch --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program under test is imported
from src/ beside this directory, nothing is installed. Every input comes
from --seed. Every timed operation starts on a quiet CPU (quiet.py) and
is checked against an independent reference (check.py) outside the
timed region. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. Earlier lines, prefixed `info:`, record the interpreter,
CPU count, seed, corpus parameters, sample counts and tail percentiles.

Workloads, each a single client in a closed loop:

- classify-batch: one loaded corpus, distinct 50-1,000-token queries.
- classify-long: the same loop with 10k-50k-token queries.
- cli-fresh: `textgrade stats`, `classify` and `matrix` in turn, each a
  fresh process, rotating through the table, tsv and json formats.

Scratch files live in .bench_work/ at the checkout root and are removed
at the end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
from quiet import QuietGate
from spans import CLI_COMMANDS, Tracer, layer_metrics, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("classify-batch", "classify-long", "cli-fresh")
FORMATS = ("table", "tsv", "json")
# Printed precision for CLI runs: enough digits that a wrong score shows.
PRECISION = 6
SETUP_RUNS = 5
# The loop runs at least this many operations, so that the tail, with ten
# samples beyond it, lies above the median. On cli-fresh that is eight
# rotations: the median and the tail both fall among the classify runs,
# and the matrix runs weigh on ops_per_s.
MIN_OPS = 24
POOL = {"classify-batch": 512, "classify-long": 64}
PROBE_REQUESTS = 5
PROBE_RUNS = 5
TIME_LIMIT_S = 170
# The console script's body, then the process's peak resident memory on
# stderr. ru_maxrss cannot be used: across exec it keeps the parent's
# high-water mark, and the parent holds the generated inputs.
PEAK_TAG = "peak_rss_kb"
CLI_CODE = f"""import sys
from textgrade.cli import main
code = main()
with open("/proc/self/status") as status:
    print("{PEAK_TAG}", *[line.split()[1] for line in status if line.startswith("VmHWM:")], file=sys.stderr)
sys.exit(code)
"""
IMPORT_CODE = "import time\nt = time.perf_counter()\nimport textgrade.cli\nprint(t, time.perf_counter())"


class HarnessError(Exception):
    """The benchmark itself could not measure; no result is printed."""


@dataclass(frozen=True)
class Finished:
    code: int
    start: float
    end: float
    stdout: str
    stderr: str
    peak_rss_kb: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Runner:
    """Starts child processes one at a time and reaps each before returning.

    A child starts on the quiet CPU the gate picks, unless it gates its
    own operations (`pin=False`), in which case it may use every CPU.
    """

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
        self.count = 0
        self.gate = QuietGate()

    def run(self, argv: list[str], pin: bool = True) -> Finished:
        self.count += 1
        if pin:
            self.gate.wait()
        else:
            self.gate.release()
        out = self.work / f"child-{self.count}.out"
        err = self.work / f"child-{self.count}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        argv = [sys.executable] + argv
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        end = time.perf_counter()
        stdout = out.read_text(encoding="utf-8")
        stderr = err.read_text(encoding="utf-8").splitlines()
        out.unlink()
        err.unlink()
        peak = None
        if stderr and stderr[-1].startswith(PEAK_TAG + " "):
            peak = int(stderr.pop().split()[1])
        return Finished(os.waitstatus_to_exitcode(status), start, end, stdout, "\n".join(stderr), peak)

    def worker(self, mode: str, *options: str) -> dict:
        out = self.work / f"{mode}-{self.count + 1}.json"
        # batch and probe gate each of their own operations
        pin = mode == "setup"
        done = self.run([str(HERE / "worker.py"), mode, "--out", str(out), *options], pin=pin)
        if done.code != 0:
            raise HarnessError(f"worker {mode} exited {done.code}: {done.stderr.strip()[-2000:]}")
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return result


class Run:
    """One benchmark run: inputs, set-up samples, the loop, checks, metrics."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.trace = bool(args.trace)
        self.runner = Runner(work, args.seed)
        self.tracer = Tracer(f"harness-{os.getpid()}")
        self.attempted = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.absent: dict[str, str] = {}
        self.info: dict = {}
        self.untraced: list[float] = []
        self.matrix_cells: dict | None = None
        # a traced run reports no tail, so its loop is bound by time alone
        self.min_ops = 1 if self.trace else MIN_OPS

    # --- bookkeeping ----------------------------------------------------------

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    def collect(self, result: dict) -> dict:
        self.spans += result.get("spans", [])
        self.absent.update(result.get("absent", {}))
        return result

    # --- inputs ---------------------------------------------------------------------

    def make_inputs(self) -> None:
        started = time.perf_counter()
        self.generator = gen.Generator(self.args.seed)
        self.corpus = self.generator.corpus()
        self.manifest = gen.write_corpus(self.corpus, self.work / "corpus")
        self.ref = check.Reference(
            {g: [t for doc in self.corpus[g] for t in doc.tokens] for g in gen.GRADES}
        )
        workload = self.args.workload
        queries_dir = self.work / "queries"
        queries_dir.mkdir()
        if workload == "classify-long":
            pool = self.generator.long_queries(POOL[workload], "pool")
            warmup = self.generator.long_queries(2, "warmup")
        else:
            pool = self.generator.batch_queries(self.corpus, POOL.get(workload, 2), "pool")
            warmup = self.generator.batch_queries(self.corpus, 2, "warmup")
        if workload == "cli-fresh":
            # one query on the cosine path, as near 400 tokens as the pool has
            cosine = [d for k, d in enumerate(pool) if k % 4]
            pool = [min(cosine, key=lambda d: abs(len(d.tokens) - 400))]
        for k, doc in enumerate(pool):
            (queries_dir / f"q{k:04d}.txt").write_text(doc.text, encoding="utf-8")
        for k, doc in enumerate(warmup):
            (queries_dir / f"w{k}.txt").write_text(doc.text, encoding="utf-8")
        self.queries_dir = queries_dir
        self.pool = pool
        self.expected: dict[int, check.Expected] = {}
        stats = gen.corpus_stats(self.corpus)
        self.info["corpus"] = {
            **stats,
            "latin_words": gen.LATIN_WORDS,
            "cyrillic_words": gen.CYRILLIC_WORDS,
            "cyrillic_share": gen.CYRILLIC_SHARE,
            "zipf_exponent": gen.EXPONENT,
            "files": len(gen.GRADES) * gen.FILES_PER_GRADE,
        }
        self.info["queries"] = {
            "pool": len(pool),
            "mean_tokens": statistics.fmean(len(d.tokens) for d in pool),
            "min_tokens": min(len(d.tokens) for d in pool),
            "max_tokens": max(len(d.tokens) for d in pool),
        }
        self.info["generate_s"] = time.perf_counter() - started

    def expect(self, k: int) -> check.Expected:
        if k not in self.expected:
            self.expected[k] = self.ref.classify(self.pool[k].tokens)
        return self.expected[k]

    # --- set-up -------------------------------------------------------------------

    def setup_samples(self) -> list[float]:
        # compiles the bytecode cache before anything is timed
        self.runner.run(["-c", "import textgrade.cli"])
        want = self.ref.stats()
        seconds = []
        for _ in range(SETUP_RUNS):
            options = ["--manifest", str(self.manifest)] + (["--trace"] if self.trace else [])
            result = self.collect(self.runner.worker("setup", *options))
            stats = {
                key: {int(g): v for g, v in value.items()} if isinstance(value, dict) else value
                for key, value in result["stats"].items()
            }
            self.tally([] if stats == want else [f"corpus stats {stats}, expected {want}"])
            seconds.append(result["load_s"])
        return seconds

    # --- workloads -------------------------------------------------------------------

    def check_ops(self, ops: list[dict]) -> list[dict]:
        """Check every operation; return the ones that completed correctly."""
        good = []
        for op in ops:
            if "error" in op:
                self.tally([op["error"].strip().splitlines()[-1]])
                continue
            k = op["i"] % len(self.pool)
            problems = check.check_classification(
                self.expect(k),
                op["chosen"],
                op["decision"],
                dict(zip(gen.GRADES, op["scores"])),
                dict(zip(gen.GRADES, op["shared"])),
            )
            self.tally([f"query {k}: {p}" for p in problems])
            if not problems:
                good.append(op)
        return good

    def classify_loop(self) -> dict:
        options = [
            "--manifest", str(self.manifest),
            "--queries", str(self.queries_dir),
            "--pool", str(len(self.pool)),
            "--seconds", str(self.args.seconds),
            "--min-ops", str(self.min_ops),
        ] + (["--trace"] if self.trace else [])
        result = self.collect(self.runner.worker("batch", *options))
        ops = result["ops"]
        good = self.check_ops(ops)
        self.untraced = [op["untraced_s"] for op in ops if "untraced_s" in op]
        self.info["distinct_queries"] = min(len(ops), len(self.pool))
        self.info["containment_share"] = sum(op["decision"] == "containment" for op in good) / len(ops)
        self.info["gate_wait_s"] = result["gate_wait_s"]
        return {
            "latencies": [op["s"] for op in good],
            "busy_s": sum(op.get("s", 0.0) for op in ops),
            "wall_s": result["wall_s"],
            "peak_rss_kb": result["peak_rss_kb"],
        }

    def cli_argv(self, cmd: str, fmt: str) -> list[str]:
        argv = ["-c", CLI_CODE, cmd, "--manifest", str(self.manifest)]
        if cmd == "classify":
            argv += ["--input", str(self.queries_dir / "q0000.txt")]
        return argv + ["--format", fmt, "--precision", str(PRECISION)]

    def check_cli(self, cmd: str, fmt: str, done: Finished, precision: int = PRECISION) -> list[str]:
        if done.code != 0 or done.stderr:
            return [f"{cmd} {fmt} exited {done.code}: {done.stderr.strip()[-500:]}"]
        text = done.stdout.rstrip("\n")
        if cmd == "stats":
            return check.check_stats_output(text, fmt, self.ref)
        if cmd == "classify":
            return check.check_classify_output(text, fmt, self.expect(0), precision)
        if self.matrix_cells is None:
            self.matrix_cells = self.ref.matrix()
        return check.check_matrix_output(text, fmt, self.matrix_cells, precision)

    def cli_process(self, cmd: str, fmt: str, rid: str) -> Finished:
        done = self.runner.run(self.cli_argv(cmd, fmt))
        if self.trace:
            self.tracer.record("cli.process", rid, done.start, done.end, cmd=cmd)
        return done

    def cli_loop(self) -> dict:
        self.runner.run(self.cli_argv("stats", "table"))  # warm-up
        runs = []
        start = time.perf_counter()
        rotation = 0
        while True:
            fmt = FORMATS[rotation % len(FORMATS)]
            for cmd in CLI_COMMANDS:
                runs.append((cmd, fmt, self.cli_process(cmd, fmt, f"op{len(runs)}")))
            rotation += 1
            if time.perf_counter() - start >= self.args.seconds and len(runs) >= self.min_ops:
                break
        wall = time.perf_counter() - start
        good = []
        for cmd, fmt, done in runs:
            problems = self.check_cli(cmd, fmt, done)
            self.tally(problems)
            if not problems:
                good.append(done)
        self.info["rotations"] = rotation
        self.info["gate_wait_s"] = self.runner.gate.waited_s
        return {
            "latencies": [d.seconds for d in good],
            "busy_s": sum(done.seconds for _, _, done in runs),
            "wall_s": wall,
            "peak_rss_kb": max(done.peak_rss_kb or 0 for _, _, done in runs),
        }

    # --- traced-run probes ---------------------------------------------------------

    def probes(self) -> None:
        """Per-layer numbers the workload's own loop does not produce."""
        for _ in range(PROBE_RUNS):
            done = self.runner.run(["-c", "pass"])
            self.tracer.record("cli.interpreter", "probe", done.start, done.end)
            # the child times its own import
            start, end = map(float, self.runner.run(["-c", IMPORT_CODE]).stdout.split())
            self.tracer.record("cli.import", "probe", start, end)
        cli_input = str(self.queries_dir / "q0000.txt")
        requests = PROBE_REQUESTS if self.args.workload == "cli-fresh" else 0
        result = self.collect(
            self.runner.worker(
                "probe", "--manifest", str(self.manifest), "--input", cli_input,
                "--requests", str(requests),
            )
        )
        if requests:
            self.check_ops(result["ops"])
            self.untraced = [op["untraced_s"] for op in result["ops"] if "untraced_s" in op]
        for cmd, text in result["cli_outputs"].items():
            # cli.main ran with the default precision of 2
            self.tally(self.check_cli(cmd, "table", Finished(0, 0.0, 0.0, text, ""), precision=2))
        if self.args.workload != "cli-fresh":
            for cmd in CLI_COMMANDS:
                done = self.cli_process(cmd, "table", f"probe-{cmd}")
                self.tally(self.check_cli(cmd, "table", done))

    # --- the run ---------------------------------------------------------------------

    def execute(self) -> dict:
        self.make_inputs()
        setup = self.setup_samples()
        loop = self.cli_loop() if self.args.workload == "cli-fresh" else self.classify_loop()
        latencies = loop["latencies"]
        if not latencies:
            raise HarnessError("no operation completed correctly: " + " | ".join(self.problems[:3]))
        pct, tail_s = tail(latencies)
        self.info["loop"] = {
            "operations": len(latencies),
            "tail_percentile": round(pct, 2),
            "wall_s": loop["wall_s"],
            "setup_samples_s": setup,
        }
        if self.trace:
            self.probes()
        failed = len(self.problems)
        if not self.trace:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(latencies) / loop["busy_s"], "1/s"),
                "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
                "latency_tail_ms": (tail_s * 1000.0, "ms"),
                "peak_rss_mb": (loop["peak_rss_kb"] / 1024.0, "MB"),
                "correct_ratio": ((self.attempted - failed) / self.attempted, "ratio"),
            }
        else:
            self.spans += self.tracer.spans
            layers = layer_metrics(self.spans, self.untraced)
            metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
            self.info["samples"] = {name: n for name, (_, _, n) in layers.items()}
            self.info["absent"] = self.absent
            self.info["trace_file"] = str(self.write_trace().relative_to(ROOT))
        if self.problems:
            self.info["problems"] = self.problems[:5]
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def write_trace(self) -> Path:
        path = WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "untraced_classify_s": self.untraced}
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="textgrade benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "textgrade" / "__init__.py").is_file():
        print(f"error: textgrade sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args, work)
    try:
        result = run.execute()
    except (HarnessError, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for key, value in {**header, **run.info}.items():
        print(f"info: {key} = {json.dumps(value, ensure_ascii=False)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
