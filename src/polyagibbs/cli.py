"""Command-line surface: coefficient tables, sampling transcripts, limit
laws, ratio experiments, TV experiments, and series diagnostics.

Every output embeds the seed and a sha256 digest of the semantic run
configuration (spec text, truncation, seed, samples, sizes, cap, method —
not the worker count or output path, so reruns and different worker counts
produce bytewise-identical output).

Exit codes: 0 success, 2 specification error, 3 precondition violation,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
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
    component_count_experiment,
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
    import os

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


def _config_digest(parts: dict) -> str:
    canon = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _semantic_config(args, spec_text: str) -> dict:
    keep = {}
    for key in ("command", "trunc", "seed", "samples", "cap", "method", "format", "experiment"):
        if hasattr(args, key):
            keep[key] = getattr(args, key)
    if hasattr(args, "sizes"):
        keep["sizes"] = list(args.sizes) if args.sizes else None
    keep["spec"] = spec_text
    return keep


def _open_out(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="")
    return sys.stdout


def _emit_table(args, header: dict, columns: List[str], rows: List[list]):
    out = _open_out(args)
    try:
        if args.format == "csv":
            w = csv.writer(out, lineterminator="\n")
            for k, v in header.items():
                w.writerow([f"# {k}", v])
            w.writerow(columns)
            w.writerows(rows)
        else:
            json.dump(
                {"header": header, "columns": columns, "rows": rows},
                out,
                indent=2,
                sort_keys=True,
            )
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_coeffs(args) -> int:
    spec_text = _read_spec(args.spec)
    model = GibbsModel.from_species(parse_spec(spec_text), truncation=args.trunc)
    inner = model.inner_ogf(1)
    comp = model.composite_ogf
    derived = model.remainder_ogf
    rows = [
        [n, str(inner[n]), str(comp[n]), str(derived[n])]
        for n in range(args.trunc + 1)
    ]
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
        "truncation": args.trunc,
    }
    _emit_table(args, header, ["n", "inner", "composite", "derived_composite"], rows)
    return 0


def cmd_sample(args) -> int:
    spec_text = _read_spec(args.spec)
    model = GibbsModel.from_species(parse_spec(spec_text), truncation=args.trunc)
    sizes = args.sizes or [8]
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
        "method": args.method,
        "sizes": sizes,
        "samples": args.samples,
    }

    def job(n: int):
        model.prepare_draws(n, args.method)

        def run(rng, k):
            lines = []
            for s in islice(model.draws(n, rng, args.method), k):
                frag = model.extract_remainder(s, rng)
                lines.append(
                    json.dumps(
                        {
                            "n": n,
                            "canonical": object_to_string(s),
                            "largest": frag.largest_size,
                            "remainder_size": frag.remainder_size,
                            "components": frag.component_count,
                        },
                        sort_keys=True,
                    )
                )
            return lines

        return f"sample:{n}", args.samples, run

    out = _open_out(args)
    try:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        # every size's chunks run in one plan, so a pool is forked once
        parts = _run_jobs(args.seed, [job(n) for n in sizes], SAMPLE_CHUNK, args.workers)
        for chunks in parts:
            for lines in chunks:
                for line in lines:
                    out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_limit(args) -> int:
    spec_text = _read_spec(args.spec)
    model = GibbsModel.from_species(parse_spec(spec_text), truncation=args.trunc)
    law = model.limit_remainder_distribution(args.cap)
    rows = [
        [object_to_string(k), object_size(k), p]
        for k, p in sorted(law.probs.items(), key=lambda kv: (-kv[1], str(kv[0])))
    ]
    rows.append(["<tail>", f">{args.cap}", law.tail])
    rows.append(["<total>", "", law.total])
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
        "rho": law.rho,
        "rho_sensitivity": law.sensitivity,
        "cap": args.cap,
    }
    _emit_table(args, header, ["remainder", "size", "probability"], rows)
    return 0


def cmd_asymptotics(args) -> int:
    spec_text = _read_spec(args.spec)
    model = GibbsModel.from_species(parse_spec(spec_text), truncation=args.trunc)
    rep = coefficient_ratio_experiment(model)
    rows = [[n, r] for n, r in rep.track]
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
        "constant": rep.constant,
        "constant_cycle_index_path": rep.constant_paths["cycle_index"],
        "constant_species_engine_path": rep.constant_paths["species_engine"],
        "rho": rep.rho,
        "window_deviation": json.dumps(rep.deviation, sort_keys=True),
    }
    _emit_table(args, header, ["n", "ratio"], rows)
    return 0


def cmd_tv(args) -> int:
    spec_text = _read_spec(args.spec)
    model = GibbsModel.from_species(parse_spec(spec_text), truncation=args.trunc)
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
        "cap": args.cap,
        "samples": args.samples,
    }
    if args.experiment == "remainder":
        rep = remainder_convergence_experiment(
            model,
            sizes=args.sizes or [20, 40],
            samples=args.samples,
            cap=args.cap,
            seed=args.seed,
            workers=args.workers,
            method=args.method,
        )
        header["decreasing"] = rep.decreasing
        rows = [
            [r.n, r.tv, r.radius, r.samples, r.empirical_tail, r.exact_tail]
            for r in rep.rows
        ]
        _emit_table(
            args,
            header,
            ["n", "tv", "confidence_radius", "samples", "empirical_tail", "exact_tail"],
            rows,
        )
    else:
        rows = []
        for n in args.sizes or [20, 40]:
            rep = component_count_experiment(
                model,
                n=n,
                samples=args.samples,
                seed=args.seed,
                cap=args.cap,
                workers=args.workers,
                method=args.method,
            )
            rows.append([rep.n, rep.tv, rep.radius, rep.samples, rep.exact_law_total])
        _emit_table(
            args,
            header,
            ["n", "tv", "confidence_radius", "samples", "exact_law_total"],
            rows,
        )
    return 0


def cmd_diagnose(args) -> int:
    spec_text = _read_spec(args.spec)
    species = parse_spec(spec_text)
    series = ogf(species, args.trunc)
    rep = diagnose_subexponential(series)
    header = {
        "seed": args.seed,
        "config_digest": _config_digest(_semantic_config(args, spec_text)),
    }
    if args.format == "csv":
        rows = [[n, r] for n, r in rep.ratio_track]
        header.update(
            {
                "d": rep.d,
                "rho": rep.rho.rho,
                "verdict_hint": rep.verdict_hint,
            }
        )
        _emit_table(args, header, ["n", "ratio"], rows)
    else:
        out = _open_out(args)
        try:
            json.dump({"header": header, "report": rep.to_dict()}, out, indent=2, sort_keys=True)
            out.write("\n")
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return EXIT_SPEC
    except (RejectionBudgetExceeded, SizeGuardExceeded) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except PolyaGibbsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
