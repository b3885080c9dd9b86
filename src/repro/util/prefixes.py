"""Minimal IPv4 prefix arithmetic.

The IGP substrate announces destination *prefixes* (like OSPF type-5 external
LSAs do), and the Fibbing controller programs paths on a per-prefix basis.
The standard library ``ipaddress`` module could be used, but it is noticeably
slow when millions of containment checks are performed inside the data-plane
simulation loop, and it does not intern equal prefixes.  This module provides
a tiny, hashable, interned :class:`Prefix` value type with just the operations
the library needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.util.errors import ValidationError

__all__ = ["Prefix", "parse_ipv4", "format_ipv4"]

_MAX_IPV4 = (1 << 32) - 1


def parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into its 32-bit integer value.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValidationError(f"invalid IPv4 address {text!r}: expected 4 octets")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValidationError(f"invalid IPv4 address {text!r}: octet {part!r} is not a number")
        octet = int(part)
        if octet > 255:
            raise ValidationError(f"invalid IPv4 address {text!r}: octet {octet} out of range")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address.

    >>> format_ipv4(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= _MAX_IPV4:
        raise ValidationError(f"IPv4 integer value {value} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Prefix:
    """An immutable, interned IPv4 prefix (network address + mask length).

    Instances are created through :meth:`parse` (from ``"a.b.c.d/len"``
    strings) or directly from an integer network address and a mask length.
    Equal prefixes are interned, so identity comparison is safe and hashing is
    cheap; this matters because prefixes are used as dictionary keys on the
    hot path of the forwarding simulation.

    >>> p = Prefix.parse("10.0.0.0/8")
    >>> p.contains_address(parse_ipv4("10.1.2.3"))
    True
    >>> Prefix.parse("10.0.0.0/8") is p
    True
    """

    __slots__ = ("network", "length", "_hash")

    _interned: Dict[Tuple[int, int], "Prefix"] = {}

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise ValidationError(f"prefix length {length} out of range [0, 32]")
        if not 0 <= network <= _MAX_IPV4:
            raise ValidationError(f"network address {network} out of range")
        mask = cls._mask(length)
        network &= mask
        key = (network, length)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_hash", hash(key))
        cls._interned[key] = self
        return self

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("Prefix instances are immutable")

    @staticmethod
    def _mask(length: int) -> int:
        if length == 0:
            return 0
        return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, implying ``/32``)."""
        if "/" in text:
            address_text, _, length_text = text.partition("/")
            if not length_text.isdigit():
                raise ValidationError(f"invalid prefix {text!r}: bad length {length_text!r}")
            length = int(length_text)
        else:
            address_text, length = text, 32
        return cls(parse_ipv4(address_text), length)

    @property
    def mask(self) -> int:
        """The 32-bit netmask of this prefix."""
        return self._mask(self.length)

    @property
    def broadcast(self) -> int:
        """The highest address covered by this prefix."""
        return self.network | (~self.mask & _MAX_IPV4)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self.length)

    def contains_address(self, address: int) -> bool:
        """Whether ``address`` (32-bit integer) falls inside this prefix."""
        return (address & self.mask) == self.network

    def contains(self, other: "Prefix") -> bool:
        """Whether ``other`` is fully covered by this prefix (or equal)."""
        return other.length >= self.length and (other.network & self.mask) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """Whether the two prefixes share at least one address."""
        return self.contains(other) or other.contains(self)

    def supernet(self, new_length: Optional[int] = None) -> "Prefix":
        """Return the covering prefix with ``new_length`` (default: one bit shorter)."""
        if new_length is None:
            new_length = self.length - 1
        if new_length < 0 or new_length > self.length:
            raise ValidationError(
                f"cannot supernet /{self.length} prefix to /{new_length}"
            )
        return Prefix(self.network, new_length)

    def subnets(self, new_length: Optional[int] = None) -> Iterator["Prefix"]:
        """Yield the subnets of this prefix at ``new_length`` (default: one bit longer)."""
        if new_length is None:
            new_length = self.length + 1
        if new_length < self.length or new_length > 32:
            raise ValidationError(
                f"cannot subnet /{self.length} prefix to /{new_length}"
            )
        step = 1 << (32 - new_length)
        count = 1 << (new_length - self.length)
        for index in range(count):
            yield Prefix(self.network + index * step, new_length)

    def __reduce__(self) -> Tuple:
        # Route unpickling through __new__(network, length) so prefixes
        # crossing a process boundary (e.g. the sweep harness's process
        # pool) re-intern in the receiving interpreter.
        return (Prefix, (self.network, self.length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self is other or (self.network == other.network and self.length == other.length)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self.network, self.length) < (other.network, other.length)

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"


def longest_match(prefixes: Iterable[Prefix], address: int) -> Optional[Prefix]:
    """Return the longest prefix in ``prefixes`` containing ``address``.

    Returns ``None`` when no prefix matches.  This is a convenience used by
    tests and examples; the FIB keeps its own per-prefix structures and does
    not need longest-prefix matching on the hot path (the simulation routes
    per announced prefix directly).
    """
    best: Optional[Prefix] = None
    for prefix in prefixes:
        if prefix.contains_address(address) and (best is None or prefix.length > best.length):
            best = prefix
    return best
