"""Gradients formed by hand, handed to optim.adam_step as the walk it takes."""


def sorted_walk(grads: dict):
    """A walk that hands each (name, gradient) of `grads` to its consumer in
    sorted name order."""

    def walk(consume):
        for name in sorted(grads):
            consume(name, grads[name])

    return walk
