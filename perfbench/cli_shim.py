"""Run one ``repro`` CLI command with spans around the layer calls.

Usage: ``python perfbench/cli_shim.py SPANS.json -- <repro arguments>``.
The command's standard output is passed through unchanged, so the traced
run's output can be checked like an untraced one.  After the command the
shim probes the opened store once more (steady-state batch pass, the first
fingerprint and the kernel counters), outside the command's own time.
Installing the wrappers and the probes are reported separately
(``install_s``, ``probe_s``) so the caller can take them out of the
command's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from child import instrument_counts
from spans import Recorder, install, stage_table


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    mark = time.perf_counter()
    recorder = Recorder()
    install(recorder)
    opened: list = []
    from repro.engine.context import AnalysisContext

    open_traced = AnalysisContext.__dict__["open"].__func__

    def capture(cls, directory):
        context = open_traced(cls, directory)
        opened.append(context)
        return context

    AnalysisContext.open = classmethod(capture)
    install_s = time.perf_counter() - mark
    with recorder.operation():
        code = repro.cli.main(argv)
    sys.stdout.flush()
    main_s = (recorder.ops[0][1] - recorder.ops[0][0]) / 1e9
    probes: dict[str, float] = {}
    probe_start = time.perf_counter()
    first_batch = [
        (end - begin) / 1e9
        for name, begin, end, _, _ in recorder.spans
        if name == "batch.columns"
    ]
    if opened and first_batch and argv and argv[0] == "score":
        from repro.data.groups import load_groups
        from repro.engine.batch import batch_group_stats_columns
        from repro.obs.manifest import fingerprint_context

        context = opened[0]
        store = Path(argv[argv.index("--mmap-dir") + 1])
        members = [list(group.members) for group in load_groups(store / "groups.json")]
        mark = time.perf_counter()
        batch_group_stats_columns.__wrapped__(context, members)
        probes["steady_batch_s"] = time.perf_counter() - mark
        probes["first_touch_s"] = first_batch[0] - probes["steady_batch_s"]
        probes["members"] = sum(len(m) for m in members)
        mark = time.perf_counter()
        fingerprint_context.__wrapped__(context)
        probes["fingerprint_s"] = time.perf_counter() - mark
        counts = instrument_counts(
            lambda: batch_group_stats_columns.__wrapped__(context, members)
        )
        probes["kernel.pairs"] = counts["kernel.pairs"]
        probes["kernel.gather"] = counts["kernel.gather"]
    table = stage_table(recorder)
    table.pop("per_op")
    probe_s = time.perf_counter() - probe_start
    payload = {
        "import_s": import_s,
        "install_s": install_s,
        "main_s": main_s,
        "probe_s": probe_s,
        "probes": probes,
        "trace": table,
    }
    Path(out_path).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
