/**
 * @file
 * Source-level lint pass for simulator correctness.
 *
 * The simulated machine must be a closed, deterministic world, so a
 * small set of host-environment leaks are banned at the source
 * level and enforced as a tier-1 test (`ctest -R lint`):
 *
 *  - wall-clock:    host time APIs (std::chrono::system_clock,
 *                   gettimeofday, time(), ...) — simulated code
 *                   must use Ticks from the event queue;
 *  - raw-random:    rand()/std::random_device/mt19937 — all
 *                   randomness flows from base/random's seeded
 *                   PCG32 streams;
 *  - event-new:     `new EventFunctionWrapper` outside the queue —
 *                   use EventQueue::scheduleLambda so autoDelete
 *                   ownership is handled;
 *  - hot-std-function: std::function in src/sim/ and src/hw/ — the
 *                   substrate's hot paths must not heap-allocate per
 *                   callback; store sim::InlineCallable or a
 *                   concrete functor (cold setup/configuration
 *                   hooks go on the allowlist);
 *  - printf-family: raw stdio in src/ — report through
 *                   base/logging or format with base/str;
 *  - mutex-raii:    bare .lock()/.unlock() calls — mutexes are held
 *                   through RAII (TrackedLock, std::lock_guard,
 *                   std::scoped_lock) so no exit path can leak a
 *                   lock; base/thread_safety's own implementation
 *                   is the canonical carve-out;
 *  - hot-alloc:     new/make_unique/make_shared and vector-growth
 *                   calls inside a function marked KLEB_HOT — the
 *                   marked hot paths are allocation-free by
 *                   contract (base/thread_safety.hh);
 *  - detached-thread: .detach() — a detached thread outlives every
 *                   determinism and shutdown guarantee the trial
 *                   pool makes; join through bench::TrialPool;
 *  - include-guard: headers must carry the canonical KLEBSIM_*
 *                   guard derived from their path;
 *  - fault-hook-coverage: every fault point registered in the
 *                   central table (src/fault/fault_points.def) must
 *                   be named in code somewhere outside the registry
 *                   itself — a declared-but-unhooked fault point is
 *                   a coverage hole, not a feature;
 *  - heartbeat-coverage: every fault point whose spec key targets
 *                   the supervised pipeline ("controller." or
 *                   "log." prefix) must be injected by a spec string
 *                   in at least one chaos test under tests/ — a
 *                   crash-path fault nobody injects is untested
 *                   recovery code;
 *  - allowlist-dangling: every allowlist entry loaded from a file
 *                   must still match at least one existing source
 *                   file AND name a rule that still exists, and a
 *                   token rule's entry must excuse a violation, so
 *                   stale carve-outs cannot silently mask future
 *                   violations.
 *
 * Exceptions live in a per-rule allowlist ("rule-id path-prefix"
 * lines); the canonical carve-outs (base/random, base/logging, the
 * queue itself) are built in.
 *
 * Scanning is token-level (see token_lexer.hh): rules match
 * identifier/punctuation sequences on a comment-, string- and
 * raw-string-aware token stream, with brace tracking for the
 * scope-sensitive rules.  The fault-registry checks read the same
 * token stream, so a comment never counts as a hook or an
 * injection.
 */

#ifndef KLEBSIM_ANALYSIS_LINT_HH
#define KLEBSIM_ANALYSIS_LINT_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace klebsim::analysis
{

/**
 * One token rule; its matcher lives in lint.cc under the same id.
 * The include-guard, fault-registry and allowlist checks are built
 * in and have no entry.
 */
struct LintRule
{
    std::string id;
    std::string message;
    std::vector<std::string> dirs; //!< top-level dirs it applies to
};

struct LintViolation
{
    std::string rule;
    std::string file; //!< repo-relative, '/'-separated
    std::size_t line; //!< 1-based; 0 for whole-file findings
    std::string text; //!< offending source line (trimmed)
    std::string message;

    /** "file:line: [rule] text -- message" */
    std::string str() const;
};

class Linter
{
  public:
    /** Installs the rules and canonical carve-outs. */
    Linter();

    const std::vector<LintRule> &rules() const { return rules_; }

    /** Exempt paths starting with @p path_prefix from @p rule_id. */
    void allow(const std::string &rule_id,
               const std::string &path_prefix);

    /**
     * Load "rule-id path-prefix" lines ('#' starts a comment).
     * Entries loaded this way are recorded with their origin and
     * line number so checkAllowlistEntries() can flag the stale
     * ones.
     * @return false (with @p error set) on malformed input.
     */
    bool loadAllowlist(const std::string &path,
                       std::string *error = nullptr);

    /**
     * Parse allowlist @p content as loadAllowlist() would read it
     * from a file named @p origin.  Exposed for unit tests.
     */
    bool loadAllowlistFromString(const std::string &content,
                                 const std::string &origin,
                                 std::string *error = nullptr);

    /** True if @p rel_path is exempt from @p rule_id. */
    bool allowed(const std::string &rule_id,
                 const std::string &rel_path) const;

    /** Scan one in-memory source file. */
    std::vector<LintViolation>
    scanSource(const std::string &rel_path,
               const std::string &content) const;

    /**
     * Check the fault-point registry (@p def_content, the X-macro
     * table at @p def_rel_path) against @p sources: every
     * KLEB_FAULT_POINT(name, key) entry must be named by the code
     * tokens `FaultPoint::name` in at least one source other than
     * the registry's own files (fault_plan.*, fault_points.*) —
     * evidence the point is wired to a real hook; comments and
     * strings do not count.  Also flags an enumerator or spec key
     * registered twice.  scanTree() runs this automatically when
     * the tree contains src/fault/fault_points.def.
     */
    std::vector<LintViolation> checkFaultHookCoverage(
        const std::string &def_rel_path,
        const std::string &def_content,
        const std::vector<std::pair<std::string, std::string>>
            &sources) const;

    /**
     * Check the fault-point registry's supervised-pipeline entries
     * against the chaos tests: every KLEB_FAULT_POINT whose spec
     * key starts with "controller." or "log." must have its key
     * appear inside a string literal of at least one of @p tests
     * (rel-path/content pairs from tests/); a comment naming it is
     * not an injection.  scanTree() runs this automatically.
     */
    std::vector<LintViolation> checkHeartbeatCoverage(
        const std::string &def_rel_path,
        const std::string &def_content,
        const std::vector<std::pair<std::string, std::string>>
            &tests) const;

    /**
     * Verify every file-loaded allowlist entry still matches at
     * least one path in @p files (repo-relative) AND names a rule
     * this linter knows (a token rule or one of the built-in
     * checks).  Of @p sources (rel-path/content pairs), the files
     * under a token rule's entry must break that rule when scanned
     * with only the built-in carve-outs.  Dangling entries are
     * reported against the allowlist file itself, so pruning a
     * source file, a violation or a rule forces its carve-outs to be
     * pruned too.
     */
    std::vector<LintViolation> checkAllowlistEntries(
        const std::vector<std::string> &files,
        const std::vector<std::pair<std::string, std::string>>
            &sources = {}) const;

    /** True if @p rule_id names a token or built-in rule. */
    bool knownRule(const std::string &rule_id) const;

    /** Scan src/, bench/ and examples/ under @p root. */
    std::vector<LintViolation>
    scanTree(const std::string &root) const;

    /** Canonical guard name for a header path (src/ is elided). */
    static std::string expectedGuard(const std::string &rel_path);

  private:
    bool ruleApplies(const LintRule &rule,
                     const std::string &rel_path) const;

    void checkGuard(const std::string &rel_path,
                    const std::vector<std::string> &lines,
                    std::vector<LintViolation> &out) const;

    /** One allowlist line loaded from a file (origin for reports). */
    struct AllowlistEntry
    {
        std::string rule;
        std::string prefix;
        std::string origin;
        std::size_t line;
    };

    std::vector<LintRule> rules_;
    std::vector<std::pair<std::string, std::string>> allow_;
    std::vector<AllowlistEntry> loaded_;
};

} // namespace klebsim::analysis

#endif // KLEBSIM_ANALYSIS_LINT_HH
