"""Driver of the ``check_cold`` / ``check_warm`` workloads.

Does what ``jubench check --format json --no-runtime --cache-dir D``
does, but over the frozen corpus under ``benchmarks/perf/corpus``
instead of the live tree, so the workload measures the analyser and
not the size of today's ``src/``.  The report goes to stdout, the
cache tally to stderr (the CLI's own convention: stdout stays
byte-identical between cold and warm runs).

    check_corpus.py --work DIR [--setup-only]

``DIR/corpus`` receives the extracted corpus (once), ``DIR/cache`` is
the incremental-analysis cache: empty for a cold run, primed for a
warm one.  ``--setup-only`` stops after everything that precedes the
analysis: imports, extraction, baseline and analyser construction.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tarfile
from pathlib import Path

from repro import check as chk
from repro.exec import DiskCache

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
TARBALL = CORPUS_DIR / "repro-pr10.tar.gz"


def extract_corpus(dest: Path) -> Path:
    """Unpack the pinned tarball into ``dest`` (no-op when present)."""
    if (dest / "src" / "repro").is_dir():
        return dest
    blob = TARBALL.read_bytes()
    pinned = (CORPUS_DIR / "SHA256").read_text().split()[0]
    actual = hashlib.sha256(blob).hexdigest()
    if actual != pinned:
        raise SystemExit(f"check_corpus: {TARBALL.name} has sha256 {actual}, "
                         f"corpus/SHA256 pins {pinned}; rebuild it with "
                         f"corpus/build_corpus.sh")
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(TARBALL) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    corpus = extract_corpus(args.work / "corpus")
    analyzer = chk.Analyzer(
        baseline=chk.load_baseline(corpus / "check-baseline.json"))
    cache = DiskCache(args.work / "cache")
    if args.setup_only:
        return 0
    report = analyzer.run(corpus / "src" / "repro", rel_base=corpus,
                          workers=1, cache=cache)
    sys.stdout.write(chk.render_json(report))
    print(f"check cache: {report.cache_hits} hit(s), "
          f"{report.cache_misses} miss(es)", file=sys.stderr)
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
