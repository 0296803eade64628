(** Top-level model-based diagnosis driver (paper sections 5–6.3).

    Given a circuit and a set of measurements, the driver

    + compiles the netlist into fuzzy constraints ({!Model}),
    + runs a prediction pass from nominals alone,
    + runs the full propagation with the observations,
    + collects the weighted conflicts and derives ranked candidates,
    + refines each suspect with fault-mode estimation: parameter values
      reconstructed from the measurements are matched against the fuzzy
      fault-mode regions (open / short / high / low) of section 7. *)

module Interval = Flames_fuzzy.Interval
module Consistency = Flames_fuzzy.Consistency
module Quantity = Flames_circuit.Quantity
module Netlist = Flames_circuit.Netlist
module Fault = Flames_circuit.Fault
module Candidates = Flames_atms.Candidates

type observation = Quantity.t * Interval.t

type symptom = {
  quantity : Quantity.t;
  measured : Interval.t;
  predicted : Interval.t option;  (** tightest nominal-pass prediction *)
  verdict : Consistency.verdict option;
  signed_dc : float option;  (** the paper's fig-7 display convention *)
}

type mode_estimate = {
  parameter : string;
  nominal : float;
  estimated : float option;
      (** fitted faulty value (simulator sweep), or the measurement-side
          propagation estimate on externally driven circuits *)
  fit_residual : float option;
      (** residual of the best fit: the summed squared normalised probe
          error when the circuit is re-simulated with [estimated];
          [None] when no fit was possible *)
  modes : (Fault.mode * float) list;  (** matching fault modes, best first *)
}

type suspect = {
  component : string;
  suspicion : float;  (** max degree of a conflict implicating it *)
  explains : bool;
      (** some value of one of its parameters reproduces every
          measurement (fit residual below {!fit_threshold}) — the
          single-fault explanations among the suspects *)
  estimates : mode_estimate list;
}

val fit_threshold : float
(** Residual below which a fit counts as explaining the symptoms
    (0.05 summed squared normalised error). *)

type result = {
  netlist : Netlist.t;
  symptoms : symptom list;
  conflicts : Candidates.conflict list;
  suspects : suspect list;  (** most suspect first *)
  diagnoses : (string list * float) list;
      (** minimal diagnoses as component-name sets with their rank *)
  single_faults : (string * float) list;
      (** components alone explaining every conflict *)
  engine : Propagate.t;  (** the underlying engine, for inspection *)
  degraded : bool;
      (** a budget check-point stopped some stage early: everything in
          the result is sound, but propagation may have missed conflicts,
          fit sweeps may have been skipped and the candidate list may be
          a prefix of the full one *)
  trips : Budget.trip list;  (** which quotas tripped, if any *)
}

val run :
  ?config:Model.config ->
  ?limits:Propagate.limits ->
  ?model:Model.t ->
  ?schedule:Schedule.t ->
  ?budget:Budget.t ->
  ?prediction_floor:float ->
  ?sensitivity_threshold:float ->
  ?prediction_degree:float ->
  ?simulate_predictions:bool ->
  Netlist.t ->
  observation list ->
  result
(** [run netlist observations] performs a full diagnosis.

    The model is lowered to a compiled {!Schedule}, which every
    propagation pass runs.  [?schedule] supplies a pre-compiled one
    (e.g. from [Flames_engine.Cache]), skipping both compilation and —
    thanks to the schedule's memo — the per-request sensitivity
    sweep.

    [?budget] (default unlimited) is polled at cheap check-points in
    propagation, fit sweeps and candidate enumeration.  A tripped budget
    never turns the run into an error: the result comes back with
    [degraded = true], the stages that were cut short simply contribute
    less (see the {!result} field docs).  With a candidate-only quota
    (no wall/step/env bound) the conflicts are those of the full run, so
    the returned [diagnoses] are a non-empty sound subset of the
    unbudgeted ranking — the property {!Flames_check.Oracle} checks.

    [?model] supplies a pre-compiled constraint model (it must be the
    compilation of exactly this [netlist] under exactly this [config] —
    e.g. obtained from [Flames_engine.Cache]); without it the netlist is
    compiled afresh.  Passing the cached compilation of the same input
    leaves the result bit-for-bit unchanged.

    When [simulate_predictions] is [true] (the default) and the circuit is
    solvable, nominal node voltages computed by the DC simulator are added
    as model-side predictions — the stand-in for the global predictions
    the paper's engine obtains from its models, which pure local
    propagation cannot derive on circuits with simultaneous constraints
    (bias networks).  Each prediction holds under the assumptions of the
    components whose sensitivity on the node reaches
    [sensitivity_threshold] (relative to the strongest, default 0.02);
    its fuzzy width is the tolerance-induced voltage uncertainty, at
    least [prediction_floor] volts (default 1 mV).

    Simulator predictions carry certainty [prediction_degree] (default
    0.95, not 1): they are linearisations at the nominal operating point,
    so their assumption sets can be incomplete when a fault moves the
    operating region — capping their degree guarantees that the sound
    degree-1 conflicts found by local constraint propagation are never
    subsumed by an approximate prediction conflict. *)

val run_r :
  ?config:Model.config ->
  ?limits:Propagate.limits ->
  ?model:Model.t ->
  ?schedule:Schedule.t ->
  ?budget:Budget.t ->
  ?prediction_floor:float ->
  ?sensitivity_threshold:float ->
  ?prediction_degree:float ->
  ?simulate_predictions:bool ->
  Netlist.t ->
  observation list ->
  (result, Err.t) Stdlib.result
(** {!run} with every library exception mapped to a structured
    {!Err.t} — the boundary the engine and the CLI use, so exceptions
    never escape a library call. *)

val healthy : result -> bool
(** No conflict was recorded at all. *)

val suspects_above : result -> float -> string list
(** Components whose suspicion reaches the threshold, ranked. *)

(** {1 Staged access}

    {!run} in separable pieces, for callers that keep propagation state
    alive between measurements ({!Flames_session.Session}).  Composing
    [simulator_predictions] → [full_pass] → [analyze] with the same
    inputs is bit-for-bit {!run}. *)

val simulator_predictions :
  Netlist.t ->
  Model.t ->
  floor:float ->
  threshold:float ->
  (Quantity.t * Interval.t * Flames_atms.Env.t) list
(** Global nominal node-voltage predictions from the DC simulator with
    their supporting assumption environments (finite-difference
    sensitivity); [[]] for externally driven or unsolvable circuits. *)

val guard_quantities : Model.t -> Quantity.t list
(** The quantities appearing in constraint guards, sorted; evidence for
    any of them triggers {!analyze}'s deterministic second pass. *)

val prediction_engine :
  ?limits:Propagate.limits ->
  budget:Budget.t ->
  schedule:Schedule.t ->
  model:Model.t ->
  degree:float ->
  floor:float ->
  threshold:float ->
  simulate:bool ->
  (Quantity.t * Interval.t * Flames_atms.Env.t) list ->
  Propagate.t
(** The nominal-only prediction pass: an engine over [model] with the
    [predictions] entered at [degree], run to quiescence.  [floor],
    [threshold] and [simulate] are the settings the predictions were
    made with; together with [limits] and [degree] they key the cache.

    The engine is shared per schedule and key: the pass sees no
    observation, so every call builds the same engine.  It runs fresh
    whenever {!Budget.meters_propagation} holds, so step and
    env quotas trip exactly where the uncached pass would; a pass cut
    short by [budget] is returned but never cached.  The returned engine
    is quiescent and must only be read ({!Propagate.best_value},
    {!Propagate.truncated}): a cached one is shared across domains. *)

val full_pass :
  ?limits:Propagate.limits ->
  schedule:Schedule.t ->
  budget:Budget.t ->
  degree:float ->
  model:Model.t ->
  predictions:(Quantity.t * Interval.t * Flames_atms.Env.t) list ->
  observations:observation list ->
  guard_evidence:(Quantity.t * Interval.t) list ->
  unit ->
  Propagate.t
(** One full propagation pass: fresh engine over [model] (running
    [schedule], its compilation) with the guard evidence pinned, [predictions] and then [observations] entered, run
    to quiescence. *)

val analyze :
  ?limits:Propagate.limits ->
  schedule:Schedule.t ->
  ?budget:Budget.t ->
  degree:float ->
  model:Model.t ->
  predictions:(Quantity.t * Interval.t * Flames_atms.Env.t) list ->
  prediction:Propagate.t ->
  first:Propagate.t ->
  Netlist.t ->
  observation list ->
  result
(** The post-propagation pipeline shared by {!run} and the session:
    guard evidence is read off [first] (triggering a second {!full_pass}
    over [schedule] when present), symptoms are judged against the [prediction] engine,
    conflicts collected, suspects fitted and candidates ranked under
    [budget] (default unlimited). *)
