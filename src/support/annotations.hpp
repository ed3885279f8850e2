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
//   SSQ_MO(order)
//     The only approved spelling for a *labeled* relaxed-order argument:
//     SSQ_MO(release) expands to std::memory_order_release normally and to
//     std::memory_order_seq_cst when the build defines SSQ_FORCE_SEQ_CST
//     (the CMake escape hatch that pins every labeled site back to a total
//     order for differential debugging). ssq-lint reads SSQ_MO(x) as
//     memory_order_x, so the checks describe the *relaxed* build either way.
//
//   SSQ_MO_RELEASE_EDGE("label") / SSQ_MO_ACQUIRE_EDGE("label")
//     Statement-position markers naming one end of a release/acquire
//     synchronizes-with edge. The marker binds to the first store/RMW
//     (release end) or load/RMW (acquire end) of the next statement (or the
//     same statement when the marker shares its last line). The mo-pairing
//     check builds a per-atomic-field edge table from these and diagnoses:
//     an acquire end with no same-label release/fence partner, two ends of
//     one label on different fields, a relaxed RMW participating in a
//     labeled edge, and relaxed re-reads of a field some release edge
//     publishes. An edge marker also counts as the SSQ_MO_JUSTIFIED
//     justification for its statement -- the label IS the justification,
//     and unlike a free-text reason it is checked for a partner.
//
//   SSQ_MO_FENCE_EDGE("label")
//     Same, for std::atomic_thread_fence sites. A fence end satisfies the
//     release side of any same-label acquire end (fence-based publication),
//     and is exempt from the same-field rule (fences have no field).
//
//   SSQ_CELL_STATE_FIELD
//     On the atomic word of a waiter cell that runs the segmented-core
//     state machine (core/segment_queue.hpp). Every store/CAS/exchange of
//     such a field must be annotated with the edge it takes.
//
//   SSQ_CELL_TRANSITION(from, to, "edge-label")
//     Statement-position marker naming the cell-state edge taken by the
//     next statement's (or the same line's) mutation of an
//     SSQ_CELL_STATE_FIELD word, plus the release/acquire edge label that
//     orders the transition (the third argument must match an
//     SSQ_MO_*_EDGE label declared in the same file). ssq-lint validates
//     the edge against the legal transition relation (EMPTY -> WAITER/
//     RESERVED/POISONED, WAITER -> MATCHED/POISONED, RESERVED -> CLAIMED/
//     POISONED, CLAIMED -> MATCHED/POISONED) and flags illegal edges
//     (e.g. poison-after-match), unannotated mutations, and transitions
//     whose ordering edge is missing or names no declared edge.
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

// One end of a labeled synchronizes-with edge (see the vocabulary comment).
#define SSQ_MO_RELEASE_EDGE(label) \
  static_assert(sizeof(label) > 1, "SSQ_MO_RELEASE_EDGE needs an edge label")
#define SSQ_MO_ACQUIRE_EDGE(label) \
  static_assert(sizeof(label) > 1, "SSQ_MO_ACQUIRE_EDGE needs an edge label")
#define SSQ_MO_FENCE_EDGE(label) \
  static_assert(sizeof(label) > 1, "SSQ_MO_FENCE_EDGE needs an edge label")

// The order argument of every labeled site. SSQ_FORCE_SEQ_CST (CMake
// option) pins all of them back to a total order at once; nothing else in
// the source changes, so a suspected weak-memory bug can be bisected to
// "ordering" vs "logic" by flipping one switch.
#if defined(SSQ_FORCE_SEQ_CST)
#define SSQ_MO(order) ::std::memory_order_seq_cst
// Human-readable build-mode tag; benches stamp it into their JSON meta so a
// snapshot records which side of the differential it came from.
#define SSQ_MEMORY_ORDER_MODE "seq_cst_forced"
#else
#define SSQ_MO(order) ::std::memory_order_##order
#define SSQ_MEMORY_ORDER_MODE "relaxed_audited"
#endif

// Pure marker for ssq-lint; the static_assert only pins that both states
// and the ordering-edge label were spelled (stringized/sized non-empty) so
// a bare SSQ_CELL_TRANSITION(,,) fails to compile. Edge legality is the
// linter's job, not the compiler's.
#define SSQ_CELL_TRANSITION(from, to, edge)                                  \
  static_assert(sizeof(#from) > 1 && sizeof(#to) > 1 && sizeof(edge) > 1,    \
                "SSQ_CELL_TRANSITION needs two named states and an ordering " \
                "edge")
