(** Reference propagation engine: the closure interpreter that
    {!Flames_core.Propagate} is diffed against by
    {!Oracle.check_compiled}.

    It walks the model's constraint list directly — firing order
    discovered per dequeued quantity, every firing re-run, each cell
    re-sorted by {!Flames_core.Value.strength} after every insertion —
    and charges its budget at the same points as the production engine:
    one step per work-queue pop, one env per surviving insertion.  Given
    the same model, limits, budget spec and inputs, the two engines must
    agree on every cell (values in order), every nogood, the steps used,
    truncation and the budget trips.  It registers no metric. *)

module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Quantity = Flames_circuit.Quantity
module Budget = Flames_core.Budget
module Model = Flames_core.Model
module Propagate = Flames_core.Propagate
module Value = Flames_core.Value

type t

val create : ?limits:Propagate.limits -> ?budget:Budget.t -> Model.t -> t
val observe : t -> Quantity.t -> Interval.t -> unit
val predict : t -> ?degree:float -> Quantity.t -> Interval.t -> Env.t -> unit
val set_guard_evidence : t -> (Quantity.t * Interval.t) list -> unit
val run : t -> unit

val cells : t -> (Quantity.t * Value.t list) list
(** Every non-empty cell, by {!Quantity.compare}, values in cell order. *)

val best_value : t -> ?observational:bool -> Quantity.t -> Value.t option
val nogood_db : t -> Flames_atms.Nogood.t
val steps_used : t -> int
val truncated : t -> bool
