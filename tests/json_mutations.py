"""Type-breaking mutations of JSON documents, shared by the CLI fuzz tests."""


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from paths(child, prefix + (key,))


def swapped(value, pick):
    """The value as another JSON type."""
    if isinstance(value, list):
        return pick(["".join(map(str, value)), len(value), {}])
    if isinstance(value, str):
        return pick([[value], len(value), None])
    if isinstance(value, dict):
        return pick([list(value), ",".join(value)])
    return pick([str(value), [value]])


def drop_or_swap(obj, kind, pick):
    """Delete the value at a random path of ``obj``, or swap its type."""
    path = pick([p for p in paths(obj) if p])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = swapped(parent[path[-1]], pick)


def strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def object_of(value, check) -> bool:
    return isinstance(value, dict) and all(map(check, value.values()))
