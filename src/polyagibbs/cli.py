"""Command-line surface: coefficient tables, sampling transcripts, limit
laws, ratio experiments, TV experiments, and series diagnostics.

Every output embeds the seed and a sha256 digest of the semantic run
configuration (spec text, truncation, seed, samples, sizes, cap, method —
not the worker count or output path, so reruns and different worker counts
produce bytewise-identical output).

Exit codes: 0 success, 2 specification or input/output error (a malformed
spec, an unreadable spec file, a negative count, an ``--out`` that cannot
be written), 3 precondition violation, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from itertools import islice
from typing import List

from .asymptotics import diagnose_subexponential, coefficient_ratio_experiment
from .engine import ogf
from .errors import (
    PolyaGibbsError,
    RejectionBudgetExceeded,
    SizeGuardExceeded,
    SpecError,
)
from .gibbs import GibbsModel
from .species import object_size, object_to_string, parse_spec
from .stats import (
    _run_jobs,
    component_count_reports,
    remainder_convergence_experiment,
)

EXIT_SPEC = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

# draws per seeded chunk of a sampling transcript
SAMPLE_CHUNK = 1000


def _read_spec(source: str) -> str:
    """``source`` is a filename if it names an existing file, otherwise it
    is taken as inline DSL/JSON text.  A file that cannot be read as UTF-8
    text is a :class:`SpecError`."""
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise SpecError(f"cannot read spec file {source!r}: {e}") from e
    return source


def _non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _config_digest(args, spec_text: str) -> str:
    keep = {}
    for key in ("command", "trunc", "seed", "samples", "cap", "method", "format", "experiment"):
        if hasattr(args, key):
            keep[key] = getattr(args, key)
    if hasattr(args, "sizes"):
        keep["sizes"] = list(args.sizes) if args.sizes else None
    keep["spec"] = spec_text
    canon = json.dumps(keep, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _table(args, header: dict, columns: List[str], rows: List[list]) -> List[str]:
    if args.format == "json":
        doc = {"header": header, "columns": columns, "rows": rows}
        return [json.dumps(doc, indent=2, sort_keys=True) + "\n"]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for k, v in header.items():
        w.writerow([f"# {k}", v])
    w.writerow(columns)
    w.writerows(rows)
    return [buf.getvalue()]


def cmd_coeffs(args, species, header) -> List[str]:
    model = GibbsModel.from_species(species, truncation=args.trunc)
    inner, comp, derived = model.inner_ogf(1), model.composite_ogf, model.remainder_ogf
    rows = [
        [n, str(inner[n]), str(comp[n]), str(derived[n])]
        for n in range(args.trunc + 1)
    ]
    header["truncation"] = args.trunc
    return _table(args, header, ["n", "inner", "composite", "derived_composite"], rows)


def cmd_sample(args, species, header) -> List[str]:
    model = GibbsModel.from_species(species, truncation=args.trunc)
    sizes = args.sizes or [8]
    header.update(method=args.method, sizes=sizes, samples=args.samples)

    def job(n: int):
        model.prepare_draws(n, args.method)

        def run(rng, k):
            lines = []
            for s in islice(model.draws(n, rng, args.method), k):
                frag = model.extract_remainder(s, rng)
                record = {
                    "n": n,
                    "canonical": object_to_string(s),
                    "largest": frag.largest_size,
                    "remainder_size": frag.remainder_size,
                    "components": frag.component_count,
                }
                lines.append(json.dumps(record, sort_keys=True) + "\n")
            # the transcript is held until the run succeeds: one string
            # per chunk keeps that to its bytes, with no object per line
            return "".join(lines)

        return f"sample:{n}", args.samples, run

    # every size's chunks run in one plan, so a pool is forked once
    parts = _run_jobs(args.seed, [job(n) for n in sizes], SAMPLE_CHUNK, args.workers)
    return [json.dumps(header, sort_keys=True) + "\n"] + [t for chunks in parts for t in chunks]


def cmd_limit(args, species, header) -> List[str]:
    model = GibbsModel.from_species(species, truncation=args.trunc)
    law = model.limit_remainder_distribution(args.cap)
    rows = [
        [object_to_string(k), object_size(k), p]
        for k, p in sorted(law.probs.items(), key=lambda kv: (-kv[1], str(kv[0])))
    ]
    rows.append(["<tail>", f">{args.cap}", law.tail])
    rows.append(["<total>", "", law.total])
    header.update(rho=law.rho, rho_sensitivity=law.sensitivity, cap=args.cap)
    return _table(args, header, ["remainder", "size", "probability"], rows)


def cmd_asymptotics(args, species, header) -> List[str]:
    model = GibbsModel.from_species(species, truncation=args.trunc)
    rep = coefficient_ratio_experiment(model)
    header.update(
        constant=rep.constant,
        constant_cycle_index_path=rep.constant_paths["cycle_index"],
        constant_species_engine_path=rep.constant_paths["species_engine"],
        rho=rep.rho,
        window_deviation=json.dumps(rep.deviation, sort_keys=True),
    )
    return _table(args, header, ["n", "ratio"], [[n, r] for n, r in rep.track])


def cmd_tv(args, species, header) -> List[str]:
    model = GibbsModel.from_species(species, truncation=args.trunc)
    header.update(cap=args.cap, samples=args.samples)
    kw = dict(
        sizes=args.sizes or [20, 40],
        samples=args.samples,
        cap=args.cap,
        seed=args.seed,
        workers=args.workers,
        method=args.method,
    )
    if args.experiment == "remainder":
        rep = remainder_convergence_experiment(model, **kw)
        header["decreasing"] = rep.decreasing
        columns = ["n", "tv", "confidence_radius", "samples", "empirical_tail", "exact_tail"]
        rows = [
            [r.n, r.tv, r.radius, r.samples, r.empirical_tail, r.exact_tail]
            for r in rep.rows
        ]
    else:
        columns = ["n", "tv", "confidence_radius", "samples", "exact_law_total"]
        rows = [
            [r.n, r.tv, r.radius, r.samples, r.exact_law_total]
            for r in component_count_reports(model, **kw)
        ]
    return _table(args, header, columns, rows)


def cmd_diagnose(args, species, header) -> List[str]:
    rep = diagnose_subexponential(ogf(species, args.trunc))
    if args.format == "json":
        doc = {"header": header, "report": rep.to_dict()}
        return [json.dumps(doc, indent=2, sort_keys=True) + "\n"]
    header.update(d=rep.d, rho=rep.rho.rho, verdict_hint=rep.verdict_hint)
    return _table(args, header, ["n", "ratio"], [[n, r] for n, r in rep.ratio_track])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polyagibbs",
        description=(
            "Exact enumeration, Boltzmann-type sampling, and limit-law "
            "experiments for composite structures counted up to symmetry"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, trunc_default=200, formats=("json", "csv")):
        sp.add_argument("--spec", required=True, help="spec file or inline DSL/JSON")
        sp.add_argument("--trunc", type=_non_negative_int, default=trunc_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("coeffs", help="coefficient table of the model series")
    common(sp, trunc_default=30)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("sample", help="JSON-lines transcript of size-conditioned draws")
    common(sp, formats=("json",))
    sp.add_argument("--sizes", type=int, nargs="+")
    sp.add_argument("--samples", type=_non_negative_int, default=1000)
    sp.add_argument("--method", choices=("exact_recursive", "rejection"), default="exact_recursive")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("limit", help="limit law of the remainder after deleting a maximal component")
    common(sp)
    sp.add_argument("--cap", type=_non_negative_int, default=8)
    sp.set_defaults(fn=cmd_limit)

    sp = sub.add_parser("asymptotics", help="composite/inner coefficient-ratio track and its limit constant")
    common(sp, trunc_default=400)
    sp.set_defaults(fn=cmd_asymptotics)

    sp = sub.add_parser("tv", help="total-variation experiments against the limit law")
    common(sp)
    sp.add_argument("--sizes", type=int, nargs="+")
    sp.add_argument("--samples", type=_non_negative_int, default=10000)
    sp.add_argument("--cap", type=_non_negative_int, default=12)
    sp.add_argument("--method", choices=("exact_recursive", "rejection"), default="exact_recursive")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--experiment", choices=("remainder", "components"), default="remainder")
    sp.set_defaults(fn=cmd_tv)

    sp = sub.add_parser("diagnose", help="heavy-tail diagnostics of the model's counting series")
    common(sp, trunc_default=400)
    sp.set_defaults(fn=cmd_diagnose)
    return p


def main(argv=None) -> int:
    """Read and parse the spec, stamp the header with the seed and the
    config digest, and run the command, which returns its whole output as
    a list of strings.  Only then is ``--out`` opened and written, so a
    failed run leaves it as it was; an ``--out`` that cannot be opened
    exits 2 with a one-line error."""
    args = build_parser().parse_args(argv)
    try:
        spec_text = _read_spec(args.spec)
        header = {"seed": args.seed, "config_digest": _config_digest(args, spec_text)}
        pieces = args.fn(args, parse_spec(spec_text), header)
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return EXIT_SPEC
    except (RejectionBudgetExceeded, SizeGuardExceeded) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except PolyaGibbsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    if not args.out:
        sys.stdout.writelines(pieces)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as e:
        print(f"error: cannot write {args.out!r}: {e.strerror or e}", file=sys.stderr)
        return EXIT_SPEC
    return 0


if __name__ == "__main__":
    sys.exit(main())
