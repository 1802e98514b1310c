"""Six programs with a planted constant-time violation.

Each must get an `insecure` verdict from `leakage.ct_check`.  The
sources are kept here, not imported from the test suite, so that the
benchmark stands on the program's public API alone.
"""

from jamin.leakage import Ptr, PublicSpec, Val

ENTRY = "f"
TRIALS = 1000

PLANTED = [
    ("secret branch (equality test)", """
fn f(reg u64 s, reg u64 p) -> reg u64 {
  reg u64 r;
  r = 0;
  if (s == 0) { r = 1; }
  return r;
}""", {"s": Val(64), "p": Val(64)}, PublicSpec.of(["p"])),
    ("secret branch (loop bound)", """
fn f(reg u64 s) -> reg u64 {
  reg u64 acc, n;
  acc = 0;
  n = s & 0xff;
  while (0 < n) { acc = acc + n; n = n - 1; }
  return acc;
}""", {"s": Val(64)}, PublicSpec.of([])),
    ("secret load address", """
fn f(reg u64 base, reg u64 s) -> reg u64 {
  reg u64 r;
  r = (u8)[base + (s & 0xf)];
  return r;
}""", {"base": Ptr(16), "s": Val(64)},
     PublicSpec.of(["base"], public_regions=["base"])),
    ("secret store address", """
fn f(reg u64 base, reg u64 s) {
  (u8)[base + (s & 0x7)] = 1;
}""", {"base": Ptr(8), "s": Val(64)}, PublicSpec.of(["base"])),
    ("secret array index (read)", """
fn f(reg u64 s) -> reg u64 {
  stack u8[8] a;
  for i = 0 to 7 { (u8)a[i] = i; }
  reg u64 r;
  r = (u8)a[s & 0x7];
  return r;
}""", {"s": Val(64)}, PublicSpec.of([])),
    ("secret array index (write)", """
fn f(reg u64 s) -> reg u64 {
  stack u8[16] a;
  (u8)a.[s & 0xf] = 1;
  reg u64 r;
  r = 0;
  return r;
}""", {"s": Val(64)}, PublicSpec.of([])),
]
