"""Copy a model's parameters out and back in, for tests that compare or
restore them."""


def snapshot_params(model) -> dict:
    return {k: p.copy() for k, p in model.named_parameters().items()}


def restore_params(model, snapshot: dict) -> None:
    for k, p in model.named_parameters().items():
        p[:] = snapshot[k]
