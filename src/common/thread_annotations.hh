/**
 * @file
 * Clang thread-safety ("capability") analysis annotations.
 *
 * These macros turn the repo's locking discipline into a
 * compiler-checked contract: a member declared `GUARDED_BY(mu_)` can
 * only be touched while `mu_` is held, and `-Werror=thread-safety`
 * (enabled for every Clang build in CMakeLists.txt) turns a violation
 * into a compile error instead of a data race the TSan job may or may
 * not catch. The macros are the part of the standard set from Clang's
 * thread-safety documentation that the code uses; add another from
 * that set when code needs it. Under compilers without the attributes
 * (GCC) every macro expands to nothing, so the annotated code builds
 * everywhere.
 *
 * The analysis only understands annotated lock types —
 * libstdc++'s std::mutex carries no capability attributes — so the
 * runtime locks through the annotated wrappers in common/mutex.hh
 * (`Mutex`, `MutexLock`, `CondVar`) rather than std::mutex directly.
 *
 * Conventions for new code:
 *  - every member a mutex protects is `GUARDED_BY(that_mutex)`;
 *  - lock acquisition is scoped (`MutexLock lock(mu_);`) — bare
 *    lock()/unlock() pairs are what the analyzer cannot prove;
 *  - condition-variable predicates are written as explicit
 *    `while (!pred) cv.wait(lock);` loops, because a predicate lambda
 *    is analyzed as a separate function that does not visibly hold
 *    the lock.
 *
 * tests/annotations/negative.cc (driven by the test_thread_annotations
 * ctest) proves the wiring is live: an unguarded write to a
 * GUARDED_BY member must *fail* to compile under Clang.
 */

#ifndef HIGHLIGHT_COMMON_THREAD_ANNOTATIONS_HH
#define HIGHLIGHT_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define HIGHLIGHT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef HIGHLIGHT_THREAD_ANNOTATION
#define HIGHLIGHT_THREAD_ANNOTATION(x) // no-op without the analysis
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define CAPABILITY(x) HIGHLIGHT_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type whose constructor acquires and destructor
 *  releases a capability. */
#define SCOPED_CAPABILITY HIGHLIGHT_THREAD_ANNOTATION(scoped_lockable)

/** The member may only be accessed while holding capability `x`. */
#define GUARDED_BY(x) HIGHLIGHT_THREAD_ANNOTATION(guarded_by(x))

/** The function acquires the capability and holds it on return. */
#define ACQUIRE(...) \
    HIGHLIGHT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases a capability the caller holds. */
#define RELEASE(...) \
    HIGHLIGHT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#endif // HIGHLIGHT_COMMON_THREAD_ANNOTATIONS_HH
