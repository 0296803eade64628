(** Models compiled to flat propagation schedules.

    A schedule is the preplanned form of a compiled {!Model}: quantities
    interned to dense ids, constraints lowered to an instruction array
    over flat float buffers (trapezoid parameters as 4 contiguous
    floats, linear coefficients and their reciprocals precomputed), and
    the constraint firing order planned once instead of discovered per
    propagation.  {!Propagate} runs nothing else: its values and
    nogoods match the reference interpreter in [Flames_check] cell for
    cell (enforced by the [engine-vs-reference] differential oracle).

    Schedules are immutable after construction and safe to share across
    engines, sessions and worker domains; they are what
    [Engine.Cache] stores.  The memoized simulator sensitivity report
    (the per-request dominant cost of the warm serve path before this
    existed) is the only mutable state and is lock-protected. *)

module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Quantity = Flames_circuit.Quantity

module FTbl : Hashtbl.S with type key = float array
(** Hash table over flat float keys (plain float [=] per slot, generic
    hash) — the consistency-memo representation used by each engine's
    local first level and the schedule's master copy. *)

type flat
(** An immutable published snapshot of the shared consistency memo:
    linear-probing open addressing over one flat float array, so a
    probe costs one hash plus one or two adjacent cache lines.  Never
    mutated after construction — probing needs no synchronisation. *)

val flat_find : flat -> float array -> float
(** Probe a snapshot with a 9-float key; raises [Not_found]. *)

type kernel =
  | Linear of { coeffs : float array; inv : float array; crisp_k : Interval.t }
      (** [inv.(i) = 1. /. coeffs.(i)] precomputed; [crisp_k] the
          constant side as a crisp interval *)
  | Product  (** q0 = q1 ⊗ q2; the target position selects mul or div *)
  | Seed of { nominal : bool; off : int }
      (** generative constraint; its trapezoid lives at
          [seedbuf.(off .. off+3)] as (m1, m2, alpha, beta) *)

type instr = {
  name : string;
  kernel : kernel;
  vars : int array;  (** quantity ids, in [Constr.vars] order *)
  assumptions : Env.t;
  degree : float;
  guards : (int * Interval.t) array;
}

type firing = {
  instr : int;
  target : int;  (** quantity id derived by this firing *)
  tpos : int;  (** index of [target] in the instruction's [vars] *)
  srcs : int array;  (** [vars] minus [tpos], order preserved *)
  fid : int;
      (** dense id of the [(instr, tpos)] pair, shared by every plan
          entry that fires it — the engine's no-op-skip stamps key on it *)
}

type t = private {
  uid : int;  (** unique per schedule; a physical-identity hash key *)
  model : Model.t;
  qty : Quantity.t array;
  qname : string array;  (** pre-rendered conflict reasons, one per id *)
  qindex : (Quantity.t, int) Hashtbl.t;
  instrs : instr array;  (** one per model constraint, model order *)
  plan : firing array array;  (** [plan.(qid)]: firings when qid updates *)
  nfirings : int;  (** bound on [firing.fid] *)
  seeds : int array;  (** generative instruction indices, model order *)
  seedbuf : float array;
  mutable reports : Flames_sim.Sensitivity.node_report list option;
  rlock : Mutex.t;
  fmemo : flat Atomic.t;
      (** shared consistency memo: an immutable-once-published snapshot,
          probed lock-free *)
  mutable mmaster : float FTbl.t;
      (** canonical mutable form behind [fmemo], guarded by [mlock] *)
  mlock : Mutex.t;  (** serialises {!memo_publish} *)
}

val memo_snapshot : t -> flat
(** The current shared consistency-memo snapshot.  Entries are pure
    functions of their key, valid across engines, threads and
    domains. *)

val memo_publish : t -> float FTbl.t -> unit
(** Merge an engine's locally computed entries into a fresh copy of the
    current snapshot and publish it (serialised, release/acquire via the
    atomic reference).  Bounded: once the snapshot reaches its cap,
    publishes become no-ops and novelties stay engine-local — memory is
    traded for recomputation, never correctness. *)

val of_model : Model.t -> t
(** Lower a compiled model into a schedule.  Cheap relative to a
    propagation run; recorded under the [schedule_compile] span
    ([t_schedule_compile] in wide events). *)

val compile : ?config:Model.config -> Flames_circuit.Netlist.t -> t
(** [Model.compile] followed by {!of_model}. *)

val model : t -> Model.t

val seed_interval : t -> int -> Interval.t
(** Rebuild the trapezoid stored at the given [seedbuf] offset. *)

val raw_reports :
  Flames_circuit.Netlist.t -> Flames_sim.Sensitivity.node_report list
(** The sensitivity sweep behind simulator predictions; [[]] for
    externally driven circuits and on simulator failure (same cases
    [Diagnose.simulator_predictions] treats as "no predictions"). *)

val predictions_of_reports :
  Model.t ->
  Flames_sim.Sensitivity.node_report list ->
  floor:float ->
  threshold:float ->
  (Quantity.t * Interval.t * Env.t) list
(** Filter a raw report into prediction triples — shared shape of
    [Diagnose.simulator_predictions]. *)

val predictions :
  t -> floor:float -> threshold:float -> (Quantity.t * Interval.t * Env.t) list
(** Memoized {!raw_reports} for the schedule's own netlist, filtered
    per call.  Thread-safe. *)
