"""Find a format-string vulnerability with the untainted qualifier.

Reproduces the paper's section 6.3 on the synthetic bftpd: the
iterative workflow annotates the two wrapper parameters that take
format strings, then the checker flags the one remaining call —
``sendstrf(s, entry->d_name)`` — where a client-controlled file name
flows into printf.  We then *run* the exploit to show the error is
real, and verify the one-line fix.

Run:  python examples/find_format_string_vuln.py
"""

import repro
from repro.analysis.annotate import annotate_untainted
from repro.core.qualifiers.library import UNTAINTED
from repro.corpus import generate_bftpd

# The daemon's own qualifier: its struct has a field named ``user``, so
# the run below must not treat the standard library's names as words.
QUALS = repro.QualifierSet([UNTAINTED])

source = generate_bftpd()
program = repro.lower_unit(repro.parse_c(source))

print("running the untainted annotation workflow on the bftpd stand-in...")
result = annotate_untainted(program)
print(f"  annotations needed: {result.annotations} (paper: 2)")
print(f"  casts needed:       {result.casts} (paper: 0)")
print(f"  errors found:       {result.errors} (paper: 1)")
for diag in result.report.diagnostics:
    print(f"    -> {diag}")
assert result.errors == 1

print("\nthe flagged code (verbatim from the paper's section 6.3):")
for line in source.splitlines():
    if "entry->d_name" in line:
        print(f"    {line.strip()}")

print("\ndemonstrating the exploit at run time...")
try:
    repro.run_c_source(source, quals=QUALS)
except repro.FormatStringError as exc:
    print(f"  FormatStringError: {exc}")
else:
    raise SystemExit("expected the format-string attack to trigger")

print("\napplying the fix: sendstrf(s, \"%s\", entry->d_name)")
fixed_source = source.replace(
    "sendstrf(sess->sock, entry->d_name);",
    'sendstrf(sess->sock, "%s", entry->d_name);',
)
fixed_program = repro.lower_unit(repro.parse_c(fixed_source))
fixed = annotate_untainted(fixed_program)
print(f"  errors after fix: {fixed.errors}")
assert fixed.errors == 0

value, output = repro.run_c_source(fixed_source, quals=QUALS)
print(f"  fixed daemon runs cleanly (exit {value}); output:")
for line in output:
    print(f"    | {line.rstrip()}")
