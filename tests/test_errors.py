"""Every exception class the library defines is raised somewhere in its sources."""

import re
from pathlib import Path

from lcsb import errors

SOURCES = "".join(path.read_text() for path in sorted(Path(errors.__file__).parent.glob("*.py")))


def test_every_error_class_is_raised():
    # a class that nothing raises promises a failure surface the library does not have
    subclasses = [name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.LcsbError)
                  and obj is not errors.LcsbError]
    unraised = [name for name in subclasses if not re.search(rf"\braise {name}\(", SOURCES)]
    assert subclasses and unraised == []
