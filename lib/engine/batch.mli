(** Deterministic batch diagnosis over a {!Pool} of workers.

    A batch is a list of independent [(netlist, observations)] jobs.
    Each job obtains its compiled schedule through the shared {!Cache}
    and runs the standard sequential {!Flames_core.Diagnose.run} in a
    worker domain —
    the parallel path executes exactly the same computation as the
    sequential one, so results are identical and are returned in
    submission order regardless of completion order.

    Failures never escape as exceptions: every outcome is a
    [(result, Err.t) result], and the resilience knobs — per-job
    {!type-retry} with jittered exponential backoff, a per-fingerprint
    {!Breaker}, per-attempt {!Flames_core.Budget} arming — compose on
    top without changing the success path. *)

module Model = Flames_core.Model
module Diagnose = Flames_core.Diagnose
module Propagate = Flames_core.Propagate
module Budget = Flames_core.Budget
module Err = Flames_core.Err
module Netlist = Flames_circuit.Netlist

type job = private {
  label : string;
  netlist : Netlist.t;
  observations : Diagnose.observation list;
  config : Model.config option;
  limits : Propagate.limits option;
  prelude : (int -> unit) option;
}

val job :
  ?label:string ->
  ?config:Model.config ->
  ?limits:Propagate.limits ->
  ?prelude:(int -> unit) ->
  Netlist.t ->
  Diagnose.observation list ->
  job
(** A diagnosis job; [label] defaults to the netlist name.  [prelude],
    when given, runs on the worker at the start of every attempt with
    the attempt number (1-based) — the fault-injection hook
    {!Flames_check.Chaos} uses (it may raise, or raise
    {!Pool.Kill_worker}). *)

type outcome = (Diagnose.result, Err.t) result

type retry = private {
  attempts : int;  (** max attempts per job, including the first *)
  base_delay : float;  (** backoff before the 2nd attempt (seconds) *)
  max_delay : float;  (** backoff cap *)
  seed : int;  (** jitter seed (replayable) *)
}

val retry :
  ?attempts:int -> ?base_delay:float -> ?max_delay:float -> ?seed:int ->
  unit -> retry
(** Retry policy: up to [attempts] (default 3) attempts per job, only
    for {!Err.retryable} errors (worker crashes and unclassified
    failures — deterministic input errors are not retried).  The delay
    before attempt [n+1] is [min max_delay (base_delay * 2^(n-1))]
    scaled by a jitter in [0.5, 1] drawn deterministically from
    [(seed, job index, n)].
    @raise Invalid_argument on non-positive attempts or negative
    delays. *)

val run_in :
  pool:Pool.t ->
  ?cache:Cache.t ->
  ?timeout:float ->
  ?budget:Budget.spec ->
  ?retry:retry ->
  ?breaker:Breaker.t ->
  job list ->
  outcome list * Stats.t
(** [run_in ~pool jobs] submits every job to the pool, awaits them in
    submission order and returns the outcomes in that same order.

    [?cache] shares compiled models across jobs (and across calls, when
    the caller reuses the cache); without it a private cache is used, so
    same-topology jobs within the batch still share one compilation.

    [?timeout] bounds each job individually (seconds).  Without
    [?budget] it is a hard deadline: an overrunning job's result is
    discarded ([Error Timed_out]).  With [?budget] each attempt arms a
    fresh {!Budget.t} from the spec, threads it into the diagnosis, and
    the deadline becomes cooperative: the pool cancels the budget and
    grants a grace window, so an overrunning job usually comes back
    [Ok] with [degraded = true] instead of timing out.

    [?retry] re-submits jobs that failed with a retryable error (see
    {!val-retry}); retries are sequentialised in the awaiting thread
    with backoff, and each re-submission is re-gated by the breaker.

    [?breaker] sheds jobs whose model fingerprint has been failing
    repeatedly: shed jobs resolve to [Error (Breaker_open _)] without
    touching the pool.  Since submission happens up-front, the breaker's
    effect within a single batch is limited to retries; its main use is
    across successive batches sharing one breaker. *)

val run :
  ?workers:int ->
  ?cache:Cache.t ->
  ?timeout:float ->
  ?budget:Budget.spec ->
  ?retry:retry ->
  ?breaker:Breaker.t ->
  job list ->
  outcome list * Stats.t
(** One-shot convenience: run over a fresh pool of [?workers] domains
    (default {!Pool.create}'s default) and shut it down afterwards. *)

val sequential :
  ?cache:Cache.t -> job list -> Diagnose.result list * Stats.t
(** Reference implementation: the same jobs through plain
    [Diagnose.run], in order, on the calling domain.  The determinism
    tests compare {!run} against this. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line summary of an outcome (the {!Flames_core.Report} summary,
    or the failure reason). *)
