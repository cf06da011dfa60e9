// Crash-point injection for durability tests. Cold code on the store's
// publication path and in the service's workers calls maybe_crash("name");
// setting OSIM_CRASH_POINT=name (or name:N for the Nth hit) makes that
// call SIGKILL the process on the spot — the same abrupt death as a
// kill -9 or power loss, with none of the destructor/atexit cleanup a
// normal exit would run. Tests then assert the invariant the atomic
// temp+rename protocol promises: after any crash, a reader sees either
// a valid object or a clean miss, never a torn read — so the store holds
// exactly the scenarios that completed, and a rerun on it is the resume.
//
// The environment is re-read on every call (these are cold paths — one
// getenv per store publication is noise) so death tests can flip the
// variable per-subprocess without caching surprises. Unset, the cost is
// one getenv returning null.
#pragma once

namespace osim {

/// Dies via SIGKILL when OSIM_CRASH_POINT selects this point.
/// `point` is a stable dotted name, e.g. "store.publish.tmp".
/// OSIM_CRASH_POINT grammar: "<name>" (first hit) or "<name>:N"
/// (Nth hit of that name in this process, 1-based).
void maybe_crash(const char* point);

}  // namespace osim
