(** The fuzzy-interval propagation and conflict-recognition engine
    (paper section 6.1).

    Quantities hold cells of propagated {!Value.t}s.  Firing a constraint
    unions the antecedent environments and min-combines degrees; every
    insertion into a cell is checked against the resident values
    (fig. 4 coincidence analysis) and each partial or hard conflict is
    recorded as a weighted nogood ([degree = 1 − Dc]) in the engine's
    database.

    The engine runs a model's compiled {!Schedule}: dense quantity ids,
    a preplanned firing order, memoized consistency kernels and
    version-stamped no-op skipping.  Its semantics are pinned by the
    closure interpreter kept in [Flames_check.Reference], which the
    differential oracle diffs it against cell by cell. *)

module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Nogood = Flames_atms.Nogood
module Quantity = Flames_circuit.Quantity

type t
(** A propagation state over a compiled model. *)

type limits = {
  max_values_per_cell : int;  (** resident values kept per quantity *)
  max_combinations : int;  (** antecedent combinations tried per firing *)
  max_steps : int;  (** work-queue pops before aborting *)
  min_conflict_degree : float;
      (** conflicts weaker than this are treated as tolerance noise and
          not recorded (i.e. [Dc >= 1 - min_conflict_degree] counts as
          consistent) *)
}

val default_limits : limits
(** 12 values per cell, 256 combinations, 100_000 steps, 0.02 conflict
    floor. *)

val create :
  ?limits:limits -> ?budget:Budget.t -> ?schedule:Schedule.t -> Model.t -> t
(** Fresh engine over the model; generative constraints (nominals,
    bounds, ground) are seeded but nothing is propagated yet.  [budget]
    (default unlimited) is charged one step per work-queue pop and one
    env per surviving cell insertion; when it trips, {!run} stops at the
    next check-point and {!truncated} latches.

    [schedule] must be compiled from the same model (e.g. the one
    [Flames_engine.Cache] keeps); without it one is lowered with
    {!Schedule.of_model}. *)

val observe : t -> Quantity.t -> Interval.t -> unit
(** Enter a measurement (environment-free, degree 1). *)

val predict : t -> ?degree:float -> Quantity.t -> Interval.t -> Env.t -> unit
(** Enter a model-side prediction holding under the given assumption set
    with the given certainty (default 1) — used for simulator-derived
    global predictions. *)

val set_guard_evidence : t -> (Quantity.t * Interval.t) list -> unit
(** Pin the operating-point evidence used to evaluate constraint guards
    (e.g. a transistor's Vce reconstructed in an earlier pass).  Pinned
    evidence takes precedence over cell contents; it never enters the
    cells, so it carries no assumption environment. *)

val run : t -> unit
(** Propagate to quiescence.  Idempotent; can be interleaved with
    {!observe} to add measurements incrementally (the engine is
    incremental like an ATMS).  When the engine's budget trips the run
    stops early but cleanly: every value and conflict recorded so far
    stays valid, later derivations are simply missing ({!truncated}). *)

val values : t -> Quantity.t -> Value.t list
(** Resident values of the quantity, strongest first
    ({!Value.strength}). *)

val cells : t -> (Quantity.t * Value.t list) list
(** Every non-empty cell, by {!Quantity.compare}, each as {!values}. *)

val best_value : t -> ?observational:bool -> Quantity.t -> Value.t option
(** The tightest resident value; with [~observational] restricted to that
    side ([true] = measurement-derived, [false] = model predictions). *)

val conflicts : t -> Flames_atms.Candidates.conflict list
(** All recorded minimal weighted conflicts. *)

val nogood_db : t -> Nogood.t
val model : t -> Model.t
val steps_used : t -> int

val truncated : t -> bool
(** Some {!run} stopped at a budget check-point (or the hard step
    limit): results are sound but possibly incomplete. *)

val names : t -> int -> string
(** Assumption pretty-naming. *)
