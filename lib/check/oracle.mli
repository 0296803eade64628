(** Independent reference implementations diffed against the production
    paths.

    Every oracle here is deliberately naive — brute-force enumeration,
    grid integration, textbook elimination — so that it shares no code,
    no algorithm and ideally no failure mode with the implementation it
    checks.  A divergence is reported as [Error message]; the
    verification runner shrinks the triggering input. *)

module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Netlist = Flames_circuit.Netlist

(** {1 Minimal hitting sets vs [Atms.Hitting]} *)

val brute_hitting : Env.t list -> Env.t list
(** Enumerate every subset of the mentioned assumptions, keep those that
    hit all conflicts, filter non-minimal ones, and order as
    [Hitting.minimal_hitting_sets] does. *)

val check_hitting : Env.t list -> (unit, string) result

(** {1 Bitset environments vs [Set.Make(Int)]} *)

val check_env : int list list -> (unit, string) result
(** Builds each id list both as a naive int set and as a bitset {!Env}
    and diffs every operation pairwise — to_list, cardinal, mem, choose,
    add, union, inter, diff, subset, disjoint, compare sign, equal — plus
    the interning contract (structural round-trips are physically equal,
    equal envs hash equally) and the signature Bloom property
    ([subset] implies [subset_word] of the signatures). *)

val check_envindex : (int list * float) list -> (unit, string) result
(** Replays the insertion script through {!Flames_atms.Envindex} (with
    the dominance-insert pattern the ATMS call sites use) and through a
    naive linear-scan reference; after every insert the acceptance
    verdict, store size, [max_subset_degree] and [is_dominated] answers
    on all script environments must agree, and the final contents must be
    identical. *)

(** {1 Fuzzy arithmetic vs [Arith]} *)

val naive_add : Interval.t -> Interval.t -> Interval.t
val naive_sub : Interval.t -> Interval.t -> Interval.t
val naive_mul : Interval.t -> Interval.t -> Interval.t
val naive_div : Interval.t -> Interval.t -> Interval.t
(** Alpha-cut interval arithmetic: the result's core and support are
    computed cut-by-cut from the operand endpoints, independently of the
    LR-hull formulas in [Arith].
    @raise Flames_fuzzy.Arith.Undefined like its counterpart. *)

val check_arith : Interval.t * Interval.t -> (unit, string) result
(** Diffs add, sub, mul (always) and div (when the divisor's support
    excludes 0), plus the algebraic guards [a - a ∋ 0] and
    [a + b = b + a]. *)

(** {1 Membership integrals and Dc vs [Piecewise]/[Consistency]} *)

val grid_min_area : ?samples:int -> Interval.t -> Interval.t -> float
(** Midpoint-rule integration of [min (mu a) (mu b)] — O(samples), no
    breakpoint analysis, immune to the jump-at-breakpoint subtleties the
    exact implementation must handle. *)

val grid_dc : measured:Interval.t -> nominal:Interval.t -> float

val check_consistency : Interval.t * Interval.t -> (unit, string) result
(** Diffs [Piecewise.min_area]/[max_area] and [Consistency.dc] against
    the grid versions (within grid tolerance), and checks the Dc range
    and NaN-freeness on both operand orders. *)

(** {1 DC solve vs [Sim.Mna]} *)

val dense_solve : Netlist.t -> (string * float) list
(** Textbook dense nodal analysis of a resistor/voltage-source netlist
    (the shape {!Gen.ladder} produces) with its own Gauss–Jordan
    elimination: node voltages, ground at 0.
    @raise Invalid_argument on unsupported component kinds. *)

val check_mna : Netlist.t -> (unit, string) result

(** {1 Batch engine vs sequential diagnosis} *)

val result_fingerprint : Flames_core.Diagnose.result -> string
(** Canonical rendering of every reported field of a diagnosis with
    hex-exact floats: two results compare equal iff their diagnostic
    content is bit-identical.  Conflict [reason] strings are excluded:
    they record the {e discovery site} of a nogood, which legitimately
    depends on propagation order (incremental vs batch), while the
    nogood itself — environment and degree — does not. *)

val check_batch :
  ?workers:int list -> Flames_engine.Batch.job list -> (unit, string) result
(** Runs the jobs sequentially, then through the pool at each worker
    count (default [[1; 2; 4]]) with a cold cache, and once more warm
    (reusing a pre-filled cache); every outcome must succeed with a
    fingerprint bit-identical to the sequential reference. *)

(** {1 Degraded diagnosis vs full diagnosis} *)

val check_degraded : Gen.scenario -> (unit, string) result
(** The graceful-degradation contract of {!Flames_core.Diagnose.run}:
    re-diagnose the scenario under a candidate quota of half the full
    candidate count and require the result to be flagged [degraded]
    with the [Candidates] trip recorded, and its diagnoses to be a
    non-empty subset (same member sets, same ranks) of the unbudgeted
    run's — sound truncation, never invention.  Scenarios whose full
    diagnosis is healthy (no candidates) pass trivially. *)

(** {1 Propagation engine vs reference interpreter} *)

val check_engine :
  ?config:Flames_core.Model.config ->
  Netlist.t ->
  Flames_core.Diagnose.observation list ->
  (unit, string) result
(** The propagation contract of {!Flames_core.Propagate}: every pass a
    diagnosis runs — the nominal prediction pass, the first full pass
    and the guard second pass — is replayed on {!Reference}, the closure
    interpreter, under the same budget spec, and must agree on every
    nogood (environment and degree), every cell's values in cell order
    (interval bits, environment, degree, side, origin, history), the
    steps used, truncation and the budget trips so far.  Checked across
    families sharing one pre-compiled {!Flames_core.Schedule}:

    - full: a run lowering its own schedule (final engine only);
    - schedule-reuse: the staged passes on the pre-compiled schedule,
      which also warm its cached prediction engine, and whose
      composed result must be {!result_fingerprint}-identical to the
      full run;
    - wall-budget reuse: a wall-only budget must match the full run
      while propagating exactly the prediction pass's steps fewer than
      the warming run (the cached engine was reused);
    - steps and envs quotas of half the prediction pass's steps must
      trip inside the pass, pass for pass like the reference, and
      [Diagnose.run] must answer like the staged passes;
    - candidate quota: a run cut short in ranking must be flagged
      degraded with only that trip, its propagation untouched. *)

val check_compiled : Gen.scenario -> (unit, string) result
(** {!check_engine} on a generated scenario. *)

(** {1 Incremental sessions vs from-scratch diagnosis} *)

val check_session : Gen.session_script -> (unit, string) result
(** The session equivalence contract: replay the script's measurement
    adds, retractions and refinements through a live
    {!Flames_session.Session} and, in parallel, through a plain
    measurement list; after {e every} step the session's
    {!Flames_session.Session.diagnoses} must be
    {!result_fingerprint}-identical to a from-scratch
    [Diagnose.run ~model] over the list.  Exercises the incremental
    observe/run path on adds and the rebuild path on retract/refine. *)
