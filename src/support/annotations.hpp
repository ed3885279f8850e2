// Protocol annotations consumed by tools/ssq-lint (docs/static_analysis.md).
//
// The reclamation and parking protocols in this library are *local*: every
// rule ("this pointer must be covered by a hazard slot before it is
// dereferenced", "this slot must not outlive its wait episode armed") can be
// stated at the declaration it concerns. These macros state them. They
// compile to nothing (or to a static_assert that only rejects an empty
// argument); ssq-lint reads them lexically, so the checks need no Clang.
//
// Vocabulary (see docs/static_analysis.md for the full check semantics):
//
//   SSQ_GUARDED_BY_HAZARD(domain)
//     On a field whose loaded pointer values must be covered by a hazard
//     (a Reclaimer::slot) before being dereferenced. `domain` names the
//     reclaimer/domain the hazard must come from (documentation + a handle
//     for future multi-domain checking; the checker currently treats all
//     slots of the enclosing structure as one domain).
//
//   SSQ_ACQUIRES_HAZARD
//     On a function that returns a pointer *already covered* by the slot
//     passed to it (the protect-validate idiom). Callers may dereference
//     the result until that slot is re-pointed or cleared.
//
//   SSQ_RELEASES_HAZARD
//     On a function that may re-point or clear the slot(s) passed to it.
//     After the call, pointers the caller had covered by those slots are
//     treated as unprotected again.
//
//   SSQ_RETURNS_UNPROTECTED
//     On a function that returns a pointer usable only as a *value* (CAS
//     operand, comparison) -- e.g. a frozen successor. Dereferencing the
//     result without re-establishing protection is a violation.
//
//   SSQ_REQUIRES_EPISODE_RESET
//     On a function that may arm a park_slot it does not own forever (the
//     slot returns to a pool or ring): every exit path must leave every
//     slot it prepared resolved -- disarm()ed, reset(), or observed woken.
//
//   SSQ_MO_JUSTIFIED("why this ordering is sufficient")
//     Statement-position marker justifying every non-seq_cst atomic
//     operation in the *next* statement (or in the same statement when
//     placed after it on the same line). ssq-lint flags any non-seq_cst
//     operation without one; the empty string is rejected at compile time.
//
//   SSQ_CELL_STATE_FIELD
//     On the atomic word of a waiter cell that runs the segmented-core
//     state machine (core/segment_queue.hpp). Every store/CAS/exchange of
//     such a field must be annotated with the edge it takes.
//
//   SSQ_CELL_TRANSITION(from, to)
//     Statement-position marker naming the cell-state edge taken by the
//     next statement's (or the same line's) mutation of an
//     SSQ_CELL_STATE_FIELD word. ssq-lint validates the edge against the
//     legal transition relation (EMPTY -> WAITER/RESERVED/POISONED,
//     WAITER -> MATCHED/POISONED, RESERVED -> CLAIMED/POISONED,
//     CLAIMED -> MATCHED/POISONED) and flags illegal edges (e.g.
//     poison-after-match) and unannotated mutations.
//
// Escape hatch (checked, never free): a comment of the form
//     // ssq-lint: suppress(<check>) -- <justification>
// inside or immediately above a function suppresses <check> for that
// function only. A suppression without a justification is itself a
// diagnostic. Policy: docs/static_analysis.md §"Suppression policy".
#pragma once

#define SSQ_ANNOTATE(text)

#define SSQ_GUARDED_BY_HAZARD(domain) \
  SSQ_ANNOTATE("ssq::guarded_by_hazard:" #domain)
#define SSQ_ACQUIRES_HAZARD SSQ_ANNOTATE("ssq::acquires_hazard")
#define SSQ_RELEASES_HAZARD SSQ_ANNOTATE("ssq::releases_hazard")
#define SSQ_RETURNS_UNPROTECTED SSQ_ANNOTATE("ssq::returns_unprotected")
#define SSQ_REQUIRES_EPISODE_RESET SSQ_ANNOTATE("ssq::requires_episode_reset")

#define SSQ_CELL_STATE_FIELD SSQ_ANNOTATE("ssq::cell_state_field")

// static_assert doubles as the non-emptiness check (sizeof("") == 1) and is
// valid in both statement and class-member position under every compiler.
#define SSQ_MO_JUSTIFIED(reason) \
  static_assert(sizeof(reason) > 1, "SSQ_MO_JUSTIFIED needs a justification")

// Human-readable memory-order tag that the benches stamp into their host
// record: every core order but the fill stores is seq_cst
// (docs/memory_model.md).
#define SSQ_MEMORY_ORDER_MODE "seq_cst"

// Pure marker for ssq-lint; the static_assert only pins that both states
// were spelled, so a bare SSQ_CELL_TRANSITION(,) fails to compile. Edge
// legality is the linter's job, not the compiler's.
#define SSQ_CELL_TRANSITION(from, to)                                 \
  static_assert(sizeof(#from) > 1 && sizeof(#to) > 1,                 \
                "SSQ_CELL_TRANSITION needs two named states")
