"""Regenerate ``repro/utils/ziggurat_tables.py`` from the installed numpy.

numpy's ``Generator.normal`` / ``exponential`` draw through 256-layer
ziggurats whose tables are compiled into the wheel: local symbols
``ki_double``, ``wi_double``, ``fi_double``, ``ke_double``, ``we_double``
and ``fe_double`` in ``.rodata`` of ``src_distributions_distributions.c.o``
inside ``numpy/random/lib/libnpyrandom.a``. This script reads them
straight out of that archive (an ``ar`` archive of ELF64 objects; only
the standard library is used and numpy is not imported), along with the
tail constants ``ziggurat_nor_r``, ``ziggurat_nor_inv_r`` and
``ziggurat_exp_r``. Those three are not symbols - the compiler folded
them into ``.rodata.cst8`` - so each is derived from its table (the
outermost layer's edge, and its reciprocal) and accepted only if that
exact double, or its negation, is in the object's constant pool.

Usage, from the repository root::

    python tools/gen_ziggurat_tables.py            # rewrite the module
    python tools/gen_ziggurat_tables.py --check    # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import pathlib
import struct
import sys

OBJECT = "src_distributions_distributions.c.o"
FLOAT_TABLES = ("wi_double", "fi_double", "we_double", "fe_double")
INT_TABLES = ("ki_double", "ke_double")
LAYERS = 256
OUTPUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "src" / "repro" / "utils" / "ziggurat_tables.py"
)


def default_archive() -> pathlib.Path:
    """``libnpyrandom.a`` of the numpy the running interpreter would import."""
    spec = importlib.util.find_spec("numpy")  # locates, does not import
    if spec is None or spec.origin is None:
        raise SystemExit("numpy is not installed; pass --archive")
    return pathlib.Path(spec.origin).parent / "random" / "lib" / "libnpyrandom.a"


def ar_member(archive: bytes, wanted: str) -> bytes:
    """The bytes of member ``wanted`` in a GNU-style ``ar`` archive."""
    if not archive.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos:pos + 60]
        name = header[:16].decode().rstrip()
        size = int(header[48:58])
        data = archive[pos + 60:pos + 60 + size]
        if name == "//":
            long_names = data
        elif name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            name = long_names[start:long_names.index(b"/\n", start)].decode()
        if name.rstrip("/") == wanted:
            return data
        pos += 60 + size + (size & 1)
    raise ValueError(f"{wanted} not found in the archive")


def elf_sections(obj: bytes) -> list[dict]:
    """Section headers of a little-endian ELF64 object, names resolved."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", obj, 0x3A)
    sections = []
    for i in range(shnum):
        name, kind, _, _, offset, size, link = struct.unpack_from(
            "<IIQQQQI", obj, shoff + i * shentsize
        )
        sections.append({"name_at": name, "type": kind, "offset": offset,
                         "size": size, "link": link})
    names = sections[shstrndx]
    for section in sections:
        section["name"] = _cstring(obj, names["offset"] + section["name_at"])
    return sections


def elf_symbols(obj: bytes, sections: list[dict]) -> dict[str, bytes]:
    """Every sized symbol's bytes, by name (local symbols included)."""
    symtab = next(s for s in sections if s["type"] == 2)  # SHT_SYMTAB
    strtab = sections[symtab["link"]]
    out = {}
    for at in range(symtab["offset"], symtab["offset"] + symtab["size"], 24):
        name, _, _, shndx, value, size = struct.unpack_from("<IBBHQQ", obj, at)
        if size and 0 < shndx < len(sections):
            start = sections[shndx]["offset"] + value
            out[_cstring(obj, strtab["offset"] + name)] = obj[start:start + size]
    return out


def _cstring(blob: bytes, at: int) -> str:
    return blob[at:blob.index(b"\0", at)].decode()


def read_tables(archive: pathlib.Path) -> dict:
    """The six tables and three constants, checked against the object."""
    obj = ar_member(archive.read_bytes(), OBJECT)
    sections = elf_sections(obj)
    symbols = elf_symbols(obj, sections)
    tables = {}
    for name in FLOAT_TABLES + INT_TABLES:
        fmt = "d" if name in FLOAT_TABLES else "Q"
        tables[name] = struct.unpack(f"<{LAYERS}{fmt}", symbols[name])
    pool = b"".join(
        obj[s["offset"]:s["offset"] + s["size"]]
        for s in sections if s["name"].startswith(".rodata.cst8")
    )
    constants = {
        "ziggurat_nor_r": tables["wi_double"][-1] * 2.0**52,
        "ziggurat_exp_r": tables["we_double"][-1] * 2.0**53,
    }
    constants["ziggurat_nor_inv_r"] = 1.0 / constants["ziggurat_nor_r"]
    words = {pool[i:i + 8] for i in range(0, len(pool), 8)}
    for name, value in constants.items():
        if not {struct.pack("<d", value), struct.pack("<d", -value)} & words:
            raise ValueError(f"{name} = {value!r} is not in {OBJECT}'s .rodata.cst8")
    return {"tables": tables, "constants": constants}


def render(found: dict, version: str) -> str:
    """The data module's source text."""
    lines = [
        f'"""numpy {version}\'s ziggurat tables - generated, do not edit.',
        "",
        "Read bit for bit from the local symbols of the same names in",
        f"``.rodata`` of ``{OBJECT}`` inside the wheel's",
        "``numpy/random/lib/libnpyrandom.a``, by",
        "``tools/gen_ziggurat_tables.py`` (``--check`` compares this file",
        "with the installed numpy's). ``KI`` / ``WI`` / ``FI`` are the normal",
        "ziggurat's accept bounds, layer widths and densities; ``KE`` / ``WE``",
        "/ ``FE`` the exponential one's. The three tail constants are",
        "numpy's ``ziggurat_nor_r``, ``ziggurat_nor_inv_r`` and",
        "``ziggurat_exp_r``, each found in the object's constant pool.",
        '"""',
        "",
    ]
    for name, value in sorted(found["constants"].items()):
        lines.append(f"{name[len('ziggurat_'):].upper()} = {value!r}")
    for name in INT_TABLES + FLOAT_TABLES:
        values = found["tables"][name]
        per_line = 4 if name in INT_TABLES else 3
        lines += ["", f"{name.split('_')[0].upper()} = ("]
        for i in range(0, LAYERS, per_line):
            lines.append("    " + " ".join(f"{v!r}," for v in values[i:i + per_line]))
        lines.append(")")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", type=pathlib.Path, default=None,
                        help="libnpyrandom.a to read (default: the installed numpy's)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed module instead of writing it")
    args = parser.parse_args(argv)
    text = render(
        read_tables(args.archive or default_archive()),
        importlib.metadata.version("numpy"),
    )
    if args.check:
        if OUTPUT.read_text() != text:
            print(f"{OUTPUT.name} differs from the installed numpy's tables", file=sys.stderr)
            return 1
        print(f"{OUTPUT.name} matches the installed numpy's tables")
        return 0
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
