"""dump(doc): yaml.safe_dump for scenario documents that cli.parse_config
reads back unchanged.

PyYAML's dumper follows YAML 1.1 and writes a string plain when YAML 1.1
reads it as a string, as it does "1e5". cli._Loader also reads the YAML
1.2 floats, so a plain 1e5 comes back as the float 100000.0. This dumper
resolves plain scalars as cli._Loader does, so it quotes every string
that cli._Loader would read as something else.
"""

import yaml

from combbeam import cli


class _Dumper(yaml.SafeDumper):
    yaml_implicit_resolvers = {
        first: list(resolvers)
        for first, resolvers in cli._Loader.yaml_implicit_resolvers.items()}


def dump(doc) -> str:
    return yaml.dump(doc, Dumper=_Dumper)
