"""A deliberately naive workflow interpreter: the differential suites' reference.

No compiler, no DAG, no partitioning, no store, no scheduler — just
demand-driven recursion over ``operator.apply`` on plain values.  Whatever the
engine does to run a workflow faster (slicing, chunking, fusion, reuse), every
node value and every reported metric must equal what this produces.
"""


def interpret(workflow):
    """``{node: value}`` for every node the workflow's declared outputs need."""
    operators = workflow.declarations()
    values = {}

    def evaluate(name):
        if name not in values:
            operator = operators[name]
            values[name] = operator.apply(
                {parent: evaluate(parent) for parent in operator.dependencies()}
            )
        return values[name]

    for output in workflow.outputs():
        evaluate(output)
    return values


def reference_metrics(workflow):
    """The metrics an iteration report carries: numeric entries of dict-valued
    outputs, prefixed with the output's name only when several outputs report."""
    values = interpret(workflow)

    def numeric(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    reporting = {
        name: {key: float(item) for key, item in values[name].items() if numeric(item)}
        for name in workflow.outputs()
        if isinstance(values[name], dict) and any(numeric(item) for item in values[name].values())
    }
    if len(reporting) == 1:
        return next(iter(reporting.values()))
    return {f"{name}.{key}": item for name, found in reporting.items() for key, item in found.items()}
