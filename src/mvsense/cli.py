"""Command-line interface.

Subcommands:
  simulate    run one trial of a scenario script
  compare     sweep the four camera configurations over several seeds
  dump-frame  run up to one frame and dump its masks/clouds/tree
  validate    lint a scenario script
  emit-template  write a built-in scenario template to a file

Exit codes: 0 ok, 1 configuration error, 2 runtime error.
Only the commands that run a trial import ``harness`` (the pipeline, scipy).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import scenario


def _load_script(args) -> scenario.ScenarioScript:
    script = scenario.parse_file(args.script)
    if getattr(args, "seed", None) is not None:
        script.seed = args.seed
    return script


def _cmd_simulate(args) -> int:
    from . import harness
    script = _load_script(args)
    metrics = harness.run_trial(script, config=args.config, frames=args.frames,
                                out_dir=args.out_dir)
    print(json.dumps(metrics.summary(), indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    from . import harness
    per_scene = {}
    for path in args.script:
        script = scenario.parse_file(path)
        if args.seed is not None:
            script.seed = args.seed
        per_scene[script.name] = harness.compare_configs(
            script, trials=args.trials, jobs=args.jobs)
    print(harness.format_comparison(per_scene))
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "comparison.json", "w", encoding="utf-8") as f:
            json.dump(per_scene, f, indent=2, sort_keys=True)
    return 0


def _cmd_dump_frame(args) -> int:
    from . import harness
    script = _load_script(args)
    harness.run_trial(script, config=args.config, frames=args.frame + 1,
                      out_dir=args.out_dir, dump_frame=args.frame)
    print(f"frame {args.frame} dumped to {args.out_dir}")
    return 0


def _cmd_validate(args) -> int:
    scenario.parse_file(args.script)
    print(f"{args.script}: ok")
    return 0


def _cmd_emit_template(args) -> int:
    if args.name not in scenario.TEMPLATES:
        raise scenario.ConfigError(
            f"unknown template {args.name!r}; have {sorted(scenario.TEMPLATES)}")
    script = scenario.TEMPLATES[args.name](seed=args.seed or 0)
    text = scenario.emit(script)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvsense",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trial")
    p.add_argument("--script", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", default="script",
                   choices=("script",) + scenario.CONFIGS)
    p.add_argument("--out-dir")
    p.add_argument("--frames", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="sweep camera configurations")
    p.add_argument("--script", required=True, action="append",
                   help="scenario file (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dump-frame", help="dump one frame's masks/clouds/tree")
    p.add_argument("--script", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", default="script",
                   choices=("script",) + scenario.CONFIGS)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_dump_frame)

    p = sub.add_parser("validate", help="lint a scenario script")
    p.add_argument("--script", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("emit-template", help="write a built-in scenario")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_emit_template)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except scenario.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        logging.getLogger("mvsense").exception("trial failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
