(** Persistent incremental diagnosis sessions (paper section 8 loop).

    The paper's troubleshooting cycle — measure, diagnose, pick the next
    best test, measure again — revisits the same circuit many times.  A
    session keeps the expensive state alive between steps: the compiled
    constraint model, the simulator predictions with their sensitivity
    environments, the prediction-pass engine, and the live propagation
    engine whose ATMS labels and weighted-nogood database grow
    monotonically as measurements arrive.

    {b Equivalence contract.}  After any sequence of
    {!add_measurement} / {!retract} / {!refine} calls, {!diagnoses}
    returns a result bit-for-bit identical to a from-scratch
    {!Flames_core.Diagnose.run} over the surviving measurement list (in
    insertion order) — the property {!Flames_check.Oracle.check_session}
    exercises with random scripts.  The session therefore never feeds a
    measurement into an already-run engine in place: propagation closure
    is order-sensitive under cell trimming and value subsumption (an
    in-place add can discover {e strictly more} conflicts than the batch
    reference, sound but not identical), so every mutation invalidates
    the propagation state, which is rebuilt lazily through the very
    {!Diagnose.full_pass} stage {!Diagnose.run} uses — identical by
    construction.  What the session amortises is everything around that
    pass: model compilation, the sensitivity-analysis simulator sweeps,
    the nominal prediction pass, and the per-domain interned-environment
    table staying warm across steps. *)

module Interval = Flames_fuzzy.Interval
module Quantity = Flames_circuit.Quantity
module Netlist = Flames_circuit.Netlist
module Model = Flames_core.Model
module Schedule = Flames_core.Schedule
module Propagate = Flames_core.Propagate
module Budget = Flames_core.Budget
module Diagnose = Flames_core.Diagnose
module Best_test = Flames_strategy.Best_test
module Estimation = Flames_strategy.Estimation

type measurement = {
  id : int;  (** session-unique, assigned at entry; retraction handle *)
  quantity : Quantity.t;
  interval : Interval.t;
}

type t

val create :
  ?config:Model.config ->
  ?limits:Propagate.limits ->
  ?model:Model.t ->
  ?schedule:Schedule.t ->
  ?budget_spec:Budget.spec ->
  ?prediction_floor:float ->
  ?sensitivity_threshold:float ->
  ?prediction_degree:float ->
  ?simulate_predictions:bool ->
  ?fault_point:(string -> unit) ->
  Netlist.t ->
  t
(** [create netlist] compiles the model (unless [?model] or
    [?schedule] supplies the compilation of exactly this
    netlist/config), derives the simulator predictions once, and takes
    the prediction-pass engine from {!Diagnose.prediction_engine} (run
    once per schedule, shared with [Diagnose.run] and other sessions);
    all three are reused by every later step.  No propagation pass runs
    here: the first {!diagnoses} builds the live engine lazily.

    [?budget_spec] (default unlimited) is armed afresh for each
    {!diagnoses} call and meters only the analysis stages (guard second
    pass, fit sweeps, candidate enumeration) — the live engine itself is
    never budget-truncated, so a tripped analysis degrades that one
    result without corrupting the session.

    [?fault_point] (default no-op) is called with a stage label
    (["add"], ["retract"], ["refine"], ["diagnose"]) {e before} the
    corresponding mutation or analysis, so a fault injected there aborts
    the step without half-applying it — the chaos harness raises from it
    to prove a mid-session fault never corrupts the reusable state. *)

val restore :
  ?config:Model.config ->
  ?limits:Propagate.limits ->
  ?model:Model.t ->
  ?schedule:Schedule.t ->
  ?budget_spec:Budget.spec ->
  ?prediction_floor:float ->
  ?sensitivity_threshold:float ->
  ?prediction_degree:float ->
  ?simulate_predictions:bool ->
  ?fault_point:(string -> unit) ->
  measurements:(int * Quantity.t * Interval.t) list ->
  next_id:int ->
  steps:int ->
  Netlist.t ->
  t
(** [restore ~measurements ~next_id ~steps netlist] rebuilds a session
    from externally persisted state (the journal's snapshot records):
    {!create}, then the surviving measurements installed verbatim — ids
    included, because they are client-visible retraction handles and are
    not contiguous after retractions — with the id counter and step
    count picked up where the original left off.  The equivalence
    contract holds unchanged: the next {!diagnoses} rebuilds through the
    same full pass a never-restarted session would use.
    @raise Invalid_argument on duplicate or non-positive measurement
    ids, [next_id] not past every id, or [steps] below the survivor
    count. *)

val add_measurement : t -> Quantity.t -> Interval.t -> measurement
(** Enter a measurement.  The compiled model, simulator predictions and
    prediction pass are never recomputed; the propagation pass over the
    grown measurement list is redone lazily at the next query (see the
    equivalence contract above for why in-place propagation is not
    used). *)

val retract : t -> id:int -> bool
(** Remove the measurement by id; [false] when unknown.  Dependent
    state (engine, cached result) is invalidated and rebuilt on the
    next query. *)

val refine : t -> id:int -> Interval.t -> measurement option
(** Replace the measurement's interval in place (same id, same position
    in the insertion order); [None] when unknown.  Invalidates like
    {!retract}. *)

val diagnoses : t -> Diagnose.result
(** Ranked diagnosis of the current measurement set — bit-for-bit the
    from-scratch {!Diagnose.run} over {!measurements}.  Cached until the
    next mutation; degraded (budget-tripped) results are not cached, so
    a later call retries the analysis. *)

val next_test :
  ?points:Best_test.test_point list -> t -> Best_test.evaluation option
(** The paper's section-8 recommendation: fuzzy-entropy best next test
    over the live estimations, excluding quantities already measured.
    [?points] defaults to every measurable node voltage of the netlist;
    [None] when nothing useful remains. *)

val estimations : t -> Estimation.t list
(** Fuzzy faultiness estimations from the current diagnosis. *)

val measurements : t -> measurement list
(** Surviving measurements, insertion order. *)

val find_measurement : t -> id:int -> measurement option

val next_id : t -> int
(** The id the next {!add_measurement} will assign (strictly above every
    id ever assigned, retracted ones included) — persisted by the
    journal's snapshots so ids never repeat across a restart. *)

val netlist : t -> Netlist.t

val model : t -> Model.t
(** The compiled model, for passing to a from-scratch run
    ([Diagnose.run ~model]) when checking equivalence. *)

val schedule : t -> Schedule.t option
(** The compiled schedule the session executes; always [Some]. *)

val steps : t -> int
(** Mutations performed so far (adds + retracts + refines). *)
