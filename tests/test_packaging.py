import re
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bqrelax"


def package_data_globs():
    """The bqrelax globs of [tool.setuptools.package-data] in pyproject.toml,
    read with a regex so that Python 3.10 (no tomllib) can run this."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.setuptools\.package-data\]\s*$(.*?)(?=^\[|\Z)",
                        text, re.M | re.S)
    assert section, "pyproject.toml has no [tool.setuptools.package-data]"
    line = re.search(r"^bqrelax\s*=\s*\[(.*?)\]", section.group(1), re.M | re.S)
    assert line, "package-data lists no bqrelax globs"
    return re.findall(r"\"([^\"]+)\"", line.group(1))


def test_every_bundled_data_file_is_package_data():
    globs = package_data_globs()
    files = [p.relative_to(PACKAGE).as_posix()
             for p in (PACKAGE / "data").rglob("*") if p.is_file()]
    assert files
    missing = [f for f in files if not any(fnmatch(f, g) for g in globs)]
    assert missing == [], f"not shipped in a built package: {missing}"
