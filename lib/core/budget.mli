(** Cooperative work budgets for graceful degradation.

    A budget is a wall-clock deadline plus quotas on the quantities that
    actually blow up in fuzzy diagnosis — propagation steps, label/nogood
    environments, hitting-set candidates — together with an external
    cancellation flag.  The pipeline stages poll it at cheap check-points;
    when a quota trips they stop {e early but cleanly}, so the diagnosis
    still returns ranked candidates, flagged degraded, instead of an
    error (see {!Diagnose}).

    A [t] is started from an immutable {!spec} immediately before the
    run it meters: deadlines are absolute, counters start at zero.  The
    counters are single-domain (one budget per job); only {!cancel} may
    be called from another domain — {!Flames_engine.Pool} uses it to
    stop a running job whose promise deadline passed. *)

type trip = Wall | Cancel | Steps | Envs | Candidates

type spec = {
  wall : float option;  (** seconds of wall clock from {!start} *)
  max_steps : int option;  (** propagation work-queue pops *)
  max_envs : int option;  (** cell/label environment insertions *)
  max_candidates : int option;  (** hitting sets enumerated *)
}

val unlimited : spec

val spec :
  ?wall:float ->
  ?max_steps:int ->
  ?max_envs:int ->
  ?max_candidates:int ->
  unit ->
  spec
(** Missing fields are unlimited.
    @raise Invalid_argument on negative or non-finite bounds. *)

type t

val start : spec -> t
(** Arm the budget now: the wall deadline is [now + wall]. *)

val fresh : unit -> t
(** [start unlimited] — an always-green budget for unbudgeted paths. *)

val cancel : t -> unit
(** External cooperative cancellation (domain-safe): every later
    check-point answers "stop".  Used by the pool when a job's deadline
    passes while it is running. *)

val charge_steps : t -> int -> bool
(** [charge_steps t n] accounts [n] more steps; [false] means a quota
    (step count, wall deadline or cancellation) tripped and the caller
    should wind down.  The deadline is only polled on every 32nd charge,
    so a charge is normally one comparison. *)

val charge_envs : t -> int -> bool
val charge_candidates : t -> int -> bool

val ok : t -> bool
(** Pure check-point: no charge, just "has anything tripped?" (also
    polls cancellation and — rate-limited — the deadline). *)

val quota_candidates : t -> int option
(** The candidate quota of the originating spec, for callers that can
    bound an enumeration up-front (e.g. as a hitting-set [limit]) rather
    than only stop it at a check-point. *)

val interrupt_of : t -> unit -> bool
(** The stop/go closure handed to budget-blind layers
    ({!Flames_atms.Hitting}, {!Flames_atms.Atms}): [true] = stop. *)

val trips : t -> trip list
(** Quotas that tripped, in order of first occurrence; [[]] = clean. *)

val tripped : t -> bool
val cancelled : t -> bool
val elapsed : t -> float

val meters_propagation : t -> bool
(** The budget carries a [max_steps] or [max_envs] quota, or is
    cancelled: skipping propagation work through a cache would move
    where (or whether) it trips.  Gates the reuse of budget-blind cached
    state ({!Diagnose}'s shared nominal-prediction engine).

    Without such a quota no replay of the skipped work's charge is
    needed.  Propagation charges only steps and envs, and this interface
    exposes no counter: a budget is observed only through its trips.  A
    wall deadline trips on elapsed time alone and a candidate quota only
    during enumeration, so under them skipping the pass changes nothing
    observable but time.  Under a step or env quota the work runs fresh
    and trips at exactly the uncached check-point.  Cancellation
    arriving after the check is best-effort, exactly as at any other
    check-point. *)

val pp_trip : Format.formatter -> trip -> unit
val pp_trips : Format.formatter -> trip list -> unit
val trip_label : trip -> string
