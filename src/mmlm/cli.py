"""Command-line entry points: prepare, train, eval, neighbors, sample, inspect.

Every command is one process with no shared state; exit codes are 0 for
success, 2 for usage/config problems, 3 for a training abort. The train
command reads an optional `key = value` config file; explicit flags win
over file values, which win over MMLM_SEED and built-in defaults.
"""

import argparse
import os
import sys
from dataclasses import fields

from . import data as D
from . import evaluate as E
from .cells import spec
from .checkpoint import (compute_config_hash, load_checkpoint,
                         model_from_checkpoint, parse_value, read_key_values,
                         render_manifest, replace_file, save_checkpoint)
from .errors import ConfigError, MmlmError, TrainingAbort, UsageError
from .model import ModelConfig, build_model
from .train import TrainConfig, fit, format_curve

ENV_SEED = "MMLM_SEED"

# `train` options: key -> (type, default). Flags use the same names with
# dashes; booleans take true/false in a config file. Every ModelConfig and
# TrainConfig field is one, except two that the data set: `context_dim`,
# from the context store, and the size `vocab`, from the vocabulary;
# `vocab` here is the vocabulary file.
_TRAIN_KEYS = {f.name: (type(f.default), f.default)
               for cls in (ModelConfig, TrainConfig) for f in fields(cls)
               if f.name != "context_dim"}
_TRAIN_KEYS.update({
    "captions": (str, None), "vocab": (str, None), "contexts": (str, None),
    "out": (str, "."), "pretrained": (str, None), "pretrained_projection": (bool, False),
    "resume": (str, None), "min_count": (int, 5),
    "seed": (int, None),  # unset: MMLM_SEED, else TrainConfig's default
})


def _config(cls, opts: dict, **given):
    """cls built from the resolved options, with `given` fields overriding."""
    return cls(**{f.name: given[f.name] if f.name in given else opts[f.name]
                  for f in fields(cls)})


def read_config_file(path) -> dict:
    """Parse `key = value` lines; full-line # comments; keys per schema."""
    values = read_key_values(D.read_text(path), path, ConfigError, keys=_TRAIN_KEYS)
    for key, val in values.items():
        try:
            values[key] = parse_value(_TRAIN_KEYS[key][0], val)
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key}: {val!r}") from None
    return values


def _resolve_train_options(args) -> dict:
    file_values = read_config_file(args.config) if args.config else {}
    opts = {}
    for key, (_, default) in _TRAIN_KEYS.items():
        flag = getattr(args, key)
        opts[key] = flag if flag is not None else file_values.get(key, default)
    if opts["seed"] is None:
        raw = os.environ.get(ENV_SEED)
        if raw is not None:
            try:
                opts["seed"] = int(raw)
            except ValueError:
                raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
        else:
            opts["seed"] = TrainConfig.seed
    if opts["captions"] is None:
        raise UsageError("train needs --captions (flag or config file)")
    return opts


def _summarize(kept, excluded, vocab) -> str:
    lines = [f"records kept: {len(kept)}",
             f"records excluded (missing context vectors): {len(excluded)}"]
    for rec in excluded:
        lines.append(f"  {rec.image_id} ({rec.language}, {rec.split})")
    lines.append("split,language,records,tokens")
    counts = {}
    for rec in kept:
        key = (rec.split, rec.language)
        n_rec, n_tok = counts.get(key, (0, 0))
        counts[key] = (n_rec + 1, n_tok + len(rec.tokens))
    for split in D.SPLITS:
        for language in sorted({lang for sp, lang in counts if sp == split}):
            n_rec, n_tok = counts[(split, language)]
            lines.append(f"{split},{language},{n_rec},{n_tok}")
    lines.append(f"vocabulary: {len(vocab.words)} words (min_count {vocab.min_count})")
    return "\n".join(lines) + "\n"


def cmd_prepare(args) -> int:
    records = D.read_captions(args.captions)
    for rec in records:
        rec.tokens = [tok.lower() for tok in rec.tokens]
    store = D.load_contexts(args.features) if args.features else None
    if store is not None:
        kept = [r for r in records if r.image_id in store]
        excluded = [r for r in records if r.image_id not in store]
    else:
        kept, excluded = records, []
    vocab = D.build_vocab([r for r in kept if r.split == "train"],
                          min_count=args.min_count)
    os.makedirs(args.out, exist_ok=True)
    D.write_captions(os.path.join(args.out, "captions.tsv"), kept)
    D.save_vocab(os.path.join(args.out, "vocab.txt"), vocab)
    if store is not None:
        referenced = D.ContextStore(store.dim)
        for image_id in sorted({r.image_id for r in kept}):
            referenced.add(image_id, store.get(image_id))
        D.save_contexts_binary(os.path.join(args.out, "contexts.mmcv"), referenced)
    summary = _summarize(kept, excluded, vocab)
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    if excluded:
        print(f"warning: excluded {len(excluded)} caption(s); "
              "their images have no context vector", file=sys.stderr)
    return 0


def _write_curve(path, state) -> None:
    text = format_curve(state.curve)  # header line included

    def write(tmp):
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)

    replace_file(path, write)


def cmd_train(args) -> int:
    opts = _resolve_train_options(args)
    records = D.read_captions(opts["captions"])
    train_records = [r for r in records if r.split == "train"]
    valid_records = [r for r in records if r.split == "valid"]
    if not train_records:
        raise UsageError(f"{opts['captions']}: no train-split records")
    if not valid_records:
        raise UsageError(f"{opts['captions']}: no valid-split records; "
                         "the schedule needs a validation set")
    # a text-only model never reads the contexts: they are not loaded, and
    # their dim stays out of its config
    fused = opts["fusion"] != "none"
    if fused and not opts["contexts"]:
        raise UsageError("fused training needs --contexts")
    store = D.load_contexts(opts["contexts"]) if fused else None
    context_dim = store.dim if fused else ModelConfig.context_dim
    vocab = (D.load_vocab(opts["vocab"]) if opts["vocab"]
             else D.build_vocab(train_records, min_count=opts["min_count"]))
    model_config = _config(ModelConfig, opts, vocab=len(vocab), context_dim=context_dim)
    model_config.validate()
    train_config = _config(TrainConfig, opts)
    train_config.validate()

    if opts["resume"]:
        ckpt = load_checkpoint(opts["resume"])
        want = compute_config_hash(model_config, train_config)
        if want != ckpt.config_hash:
            raise UsageError(
                f"refusing to resume: config hash {want[:12]} does not match "
                f"checkpoint {ckpt.config_hash[:12]} in {opts['resume']}")
        if ckpt.vocab.id_to_token != vocab.id_to_token:
            raise UsageError("refusing to resume: vocabulary differs from checkpoint")
        model = model_from_checkpoint(ckpt)
        state = ckpt.state
    else:
        model = build_model(model_config, seed=train_config.seed)
        state = None
        if opts["pretrained"]:
            pre = D.PretrainedEmbeddings.load(opts["pretrained"])
            name = f"cell.{spec(model_config.arch).embedding}"
            coverage = D.init_embeddings_from_pretrained(
                model.named_parameters()[name], vocab, pre,
                project=opts["pretrained_projection"], seed=train_config.seed)
            print(f"pretrained coverage: {coverage:.1%} of vocabulary words")

    out = opts["out"]
    os.makedirs(out, exist_ok=True)

    last = os.path.join(out, "model_last.mmlm")

    def on_epoch(st) -> None:
        save_checkpoint(last, model, vocab, train_config, st)
        if st.best_epoch == st.epoch:
            # model_best names model_last's file; the next save of model_last
            # makes a new file, so this one stays as it is
            best = os.path.join(out, "model_best.mmlm")
            try:
                replace_file(best, lambda tmp: os.link(last, tmp))
            except OSError:  # a file system without hard links
                save_checkpoint(best, model, vocab, train_config, st)
        _write_curve(os.path.join(out, "curve.csv"), st)

    first_epoch = state.epoch if state is not None else 0
    state = fit(model, train_records, valid_records, vocab, train_config,
                contexts=store, state=state, on_epoch=on_epoch)
    if state.epoch == first_epoch:
        # a run that adds no epochs still leaves complete artifacts behind;
        # otherwise the last epoch's on_epoch already wrote them
        save_checkpoint(last, model, vocab, train_config, state)
        _write_curve(os.path.join(out, "curve.csv"), state)
    best = ("none" if state.best_epoch == 0
            else f"{state.best_valid_ppl:.3f} (epoch {state.best_epoch})")
    print(f"trained to epoch {state.epoch}; best valid ppl {best}")
    return 0


def _eval_language(records, flag) -> str:
    languages = sorted({r.language for r in records})
    if flag:
        if flag not in languages:
            raise UsageError(f"no records with language {flag!r}; present: {languages}")
        return flag
    if len(languages) != 1:
        raise UsageError(f"multiple languages present {languages}; pass --language")
    return languages[0]


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    fused = model.config.fusion != "none"
    conditions = (args.conditions.split(",") if args.conditions
                  else (["LV-LV", "LV-L"] if fused else ["L-L"]))
    for cond in conditions:
        if cond not in E.CONDITIONS:
            raise UsageError(f"condition must be one of {E.CONDITIONS}, got {cond!r}")
    records = [r for r in D.read_captions(args.captions) if r.split == args.split]
    if not records:
        raise UsageError(f"{args.captions}: no {args.split}-split records")
    language = _eval_language(records, args.language)
    records = [r for r in records if r.language == language]
    # only LV-LV reads the contexts: L-L strips them and LV-L zeroes them
    if "LV-LV" in conditions and not args.contexts:
        raise UsageError("condition LV-LV needs --contexts")
    store = D.load_contexts(args.contexts) if "LV-LV" in conditions else None
    batches = D.encode_batches(records, ckpt.vocab, model.config.unroll,
                               ckpt.train_config.batch_size, contexts=store)
    model_id = args.model_id or (f"mm-{model.config.arch}" if fused
                                 else model.config.arch)
    rows, scored = [], {}  # on a fused model, L-L and LV-L are one pass
    for cond in conditions:
        nll, ppl = E.evaluate(model, batches, cond, scored=scored)
        rows.append(E.EvalRow(model_id, cond, language, nll, ppl))
    text = E.render_eval_text(rows)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "eval.csv"), "w", encoding="utf-8") as fh:
        fh.write(E.render_eval_csv(rows))
    sys.stdout.write(text)
    return 0


def cmd_neighbors(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    reports = [E.nearest_neighbors(model.params["decoder.U"], q, ckpt.vocab, k=args.k)
               for q in args.queries]
    text = E.render_neighbors_text(reports)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "neighbors.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "neighbors.csv"), "w", encoding="utf-8") as fh:
        fh.write(E.render_neighbors_csv(reports))
    sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    if args.image_id:
        if not args.contexts:
            raise UsageError("--image-id needs --contexts")
        if model.config.fusion == "none":
            raise UsageError("a text-only model cannot condition on an image")
        context = D.load_contexts(args.contexts).get(args.image_id)
        label = f"image {args.image_id}"
    else:
        context = None
        label = "null-context"
    hyps = E.beam_search(model, context=context, width=args.width,
                         max_len=args.max_len,
                         length_normalize=args.length_normalize)
    text = E.render_samples_text(hyps[:args.width], ckpt.vocab, label)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "samples.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_inspect(args) -> int:
    sys.stdout.write(render_manifest(load_checkpoint(args.checkpoint)))
    return 0


def build_parser(command=None) -> argparse.ArgumentParser:
    """The `mmlm` parser. Given a command's name it holds only that command,
    whose argv then parses and reports as in the full parser."""
    parser = argparse.ArgumentParser(
        prog="mmlm",
        description="Recurrent language models with optional visual context fusion.")
    sub = parser.add_subparsers(dest="command", required=True)
    boolopt = argparse.BooleanOptionalAction

    def add(name, func, help):
        if command in (None, name):
            p = sub.add_parser(name, help=help)
            p.set_defaults(func=func)
            return p

    if p := add("prepare", cmd_prepare, "canonicalize a raw caption corpus"):
        p.add_argument("--captions", required=True,
                       help="raw TSV: image_id, language, split, caption text")
        p.add_argument("--features", help="context vectors, text or binary")
        p.add_argument("--out", required=True)
        p.add_argument("--min-count", type=int, default=5)

    if p := add("train", cmd_train, "fit a model and write checkpoints"):
        p.add_argument("--config", help="key = value file; flags override")
        for key, (kind, _) in _TRAIN_KEYS.items():
            flag = f"--{key.replace('_', '-')}"
            if kind is bool:
                p.add_argument(flag, action=boolopt, default=None)
            else:
                p.add_argument(flag, type=kind, default=None)

    if p := add("eval", cmd_eval, "perplexity report for a checkpoint"):
        p.add_argument("checkpoint")
        p.add_argument("--captions", required=True)
        p.add_argument("--split", default="test", choices=D.SPLITS)
        p.add_argument("--contexts")
        p.add_argument("--conditions", help="comma-separated subset of L-L,LV-LV,LV-L")
        p.add_argument("--language")
        p.add_argument("--model-id")
        p.add_argument("--out", default=".")

    if p := add("neighbors", cmd_neighbors, "decoder-embedding cosine neighbors"):
        p.add_argument("checkpoint")
        p.add_argument("queries", nargs="+")
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--out", default=".")

    if p := add("sample", cmd_sample, "beam-search sentences from a checkpoint"):
        p.add_argument("checkpoint")
        p.add_argument("--image-id")
        p.add_argument("--contexts")
        p.add_argument("--width", type=int, default=13)
        p.add_argument("--max-len", type=int)
        p.add_argument("--length-normalize", action="store_true")
        p.add_argument("--out", default=".")

    if p := add("inspect", cmd_inspect, "dump a checkpoint manifest"):
        p.add_argument("checkpoint")

    return parser if command is None or command in sub.choices else build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extra:  # the full parser's usage line names every command
        build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MmlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
