"""Correctness checks, run after each timed window (never inside it).

Every sign response must verify under its tenant's public key (checked
with the per-key ``PublicKey.verify``, not the batch engine under
test); every verify verdict must equal the pool's ground truth; every
ledger must reject exactly its tampered records, commit exactly the
rest, and pass ``verify_chain("full")``.  Each mismatch or exception
is one failed operation.
"""

from __future__ import annotations


def check_wire(kind: str, outcomes, public_key) -> list[str]:
    """Failures among phase-A outcomes ``(index, tenant, message,
    signature, expected, result)``; ``public_key(tenant)`` resolves the
    key a sign response must verify under."""
    failures = []
    for index, tenant, message, signature, expected, result in outcomes:
        if isinstance(result, BaseException):
            failures.append(f"request {index}: {type(result).__name__}: "
                            f"{result}")
        elif kind == "sign":
            if not public_key(tenant).verify(message, result):
                failures.append(f"request {index}: signature from "
                                f"{tenant} does not verify")
        elif result is not expected:
            failures.append(f"request {index}: verdict {result!r}, "
                            f"ground truth {expected!r}")
    return failures


def check_ledgers(ledgers) -> list[str]:
    """Failures among ``(ledger, records)`` pairs, ``records`` being the
    ``(public_key, message, signature, valid)`` tuples submitted."""
    from repro.falcon.ledger import SignedRecord

    failures = []
    for number, (ledger, records) in enumerate(ledgers):
        valid_ids = set()
        tampered = 0
        for public_key, message, signature, valid in records:
            if valid:
                valid_ids.add(SignedRecord.make(public_key, message,
                                                signature).record_id)
            else:
                tampered += 1
        rejects = sum(ledger.rejected_total.values())
        if rejects != tampered:
            failures.append(f"ledger {number}: {rejects} rejects, "
                            f"{tampered} tampered records")
        committed = {record.record_id for block in ledger.blocks
                     for record in block.records}
        if committed != valid_ids:
            failures.append(
                f"ledger {number}: committed set differs from the "
                f"untampered records ({len(committed ^ valid_ids)} "
                f"records)")
        audit = ledger.verify_chain("full")
        if not audit.ok:
            failures.append(f"ledger {number}: verify_chain('full') "
                            f"failed: {audit.failures[:3]}")
    return failures
