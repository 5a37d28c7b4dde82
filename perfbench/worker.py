"""One benchmark process: set-up probe, timed loop, or traced pass.

Usage: ``python3 worker.py PLAN MODE SECONDS RESULT``, where PLAN is the
JSON written by ``run.py`` (argv lists only, no answers) and MODE is

* ``setup`` -- import softcsp and run the warm-up query; report the time;
* ``loop``  -- closed loop with one client: send the queries in order,
  each after the previous one returns, pass after pass until SECONDS
  seconds have passed and every query has been sent at least once; keep
  each query's fastest call;
* ``trace`` -- the queries once untraced and once under
  :class:`tracer.Recorder`, which also writes the spans.

Every call's exit code and stdout are tallied into RESULT, so the parent
can check each answer without holding the library's output in its timing.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _call(cli, argv):
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.run(argv, out=out, err=io.StringIO())
    return time.perf_counter() - start, code, out.getvalue()


def _pass(cli, queries, tally, recorder=None):
    start = time.perf_counter()
    for qid, argv in enumerate(queries):
        if recorder is not None:
            recorder.query = qid
        _, code, text = _call(cli, argv)
        tally[(qid, code, text)] += 1
    return time.perf_counter() - start


def main(plan_path, mode, seconds, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import softcsp  # noqa: F401  (the import is what set-up measures)
    from softcsp import cli
    cli.run(plan["warmup"], out=io.StringIO(), err=io.StringIO())
    result = {"setup_s": time.perf_counter() - start}

    queries = plan["queries"]
    tally = Counter()
    if mode == "loop":
        # Each query keeps its fastest call.  The calls of one query are a
        # pass apart, so they meet different phases of a shared host's load.
        best = [float("inf")] * len(queries)
        begin = time.perf_counter()
        done = False
        while not done:
            for qid, argv in enumerate(queries):
                latency, code, text = _call(cli, argv)
                best[qid] = min(best[qid], latency)
                tally[(qid, code, text)] += 1
                done = (best[-1] < float("inf")
                        and time.perf_counter() - begin >= seconds)
                if done:
                    break
        result["best_s"] = best
    elif mode == "trace":
        from tracer import Recorder
        result["untraced_s"] = _pass(cli, queries, tally)
        recorder = Recorder()
        recorder.install()
        try:
            result["traced_s"] = _pass(cli, queries, tally, recorder)
        finally:
            recorder.uninstall()
        result["layer_ms"], result["counts"] = recorder.metrics(len(queries))
        recorder.write_spans(plan["spans"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["outcomes"] = [[qid, code, text, calls]
                          for (qid, code, text), calls in tally.items()]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4])
