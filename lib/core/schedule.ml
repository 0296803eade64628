module Interval = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Quantity = Flames_circuit.Quantity
module Metrics = Flames_obs.Metrics
module Trace = Flames_obs.Trace

(* A model compiled to a flat propagation schedule.

   [Model.compile] produces a constraint list; walking it on every run
   (as the reference interpreter in [Flames_check.Reference] does)
   means association lists keyed by
   [Quantity.t] (polymorphic hash), per-firing list filtering to find
   the sources, [Format] calls to render conflict reasons, and a fresh
   [1. /. ct] division per linear gather.  A schedule performs all of
   that discovery once:

   - quantities are interned to dense integer ids ([qty] / [qindex]),
     with conflict-reason strings pre-rendered per id ([qname]);
   - every constraint becomes one {!instr} whose variables are id
     arrays and whose linear coefficients (plus their precomputed
     reciprocals) sit in flat float arrays;
   - generative constraints are seed instructions over [seedbuf], a
     flat buffer of 4 contiguous floats per trapezoid (m1, m2, alpha,
     beta);
   - the firing order the interpreter discovers per dequeued quantity
     (reverse model order of the constraints mentioning it, then each
     non-dequeued variable as target) is planned once into
     [plan.(qid)].

   The numeric semantics are untouched: {!Propagate} running a schedule
   must produce cell-for-cell the values and nogoods of the reference
   interpreter (enforced by [Oracle.check_engine]).  A schedule is immutable
   after construction and safe to share across engines and domains;
   the only mutable state is the memoized sensitivity report, guarded
   by [rlock]. *)

(* Consistency-memo key: an operation tag plus the two trapezoids, as 9
   flat floats.  See {!Propagate} for the canonicalisation;
   the table lives here so every engine compiled from one schedule
   shares the entries — the fault sweep re-derives mostly identical
   values run after run.  Plain float [=] per slot is sound: no NaN
   reaches a key, and the [-0.]/[0.] aliasing it introduces is
   value-safe (the kernels compute equal degrees for both). *)
module FKey = struct
  type t = float array

  let equal (a : float array) (b : float array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash (a : float array) = Hashtbl.hash a
end

module FTbl = Hashtbl.Make (FKey)

(* The published form of the shared memo: linear-probing open
   addressing over one flat float array, 10 slots per entry (9 key
   floats then the value), [nan] in the first key slot marking empty.
   A probe costs one hash and one or two adjacent cache lines, against
   the four dependent loads of a bucket-chained table — the probe IS
   the steady-state cost of the fast path, so this representation is
   what makes the shared memo pay.  Built at ≤50% load; never mutated
   after construction, hence probed without synchronisation.  [nan]
   can mark empty because keys never contain NaN ([Interval.make]
   rejects them, tags are constants) and values are degrees in
   [0, 1]. *)
type flat = { mask : int; slots : float array }

let flat_empty = { mask = 0; slots = Array.make 10 nan }

let flat_find f (p : float array) =
  let mask = f.mask and slots = f.slots in
  let rec go idx =
    let base = idx * 10 in
    let k = slots.(base) in
    if k <> k then raise Not_found
    else if
      k = p.(0)
      && slots.(base + 1) = p.(1)
      && slots.(base + 2) = p.(2)
      && slots.(base + 3) = p.(3)
      && slots.(base + 4) = p.(4)
      && slots.(base + 5) = p.(5)
      && slots.(base + 6) = p.(6)
      && slots.(base + 7) = p.(7)
      && slots.(base + 8) = p.(8)
    then slots.(base + 9)
    else go ((idx + 1) land mask)
  in
  go (Hashtbl.hash p land mask)

let flat_of_tbl tbl =
  let n = FTbl.length tbl in
  let size = ref 16 in
  while !size < 2 * (n + 1) do
    size := !size * 2
  done;
  let mask = !size - 1 in
  let slots = Array.make (!size * 10) nan in
  FTbl.iter
    (fun k v ->
      let rec place idx =
        let base = idx * 10 in
        if slots.(base) <> slots.(base) then begin
          Array.blit k 0 slots base 9;
          slots.(base + 9) <- v
        end
        else place ((idx + 1) land mask)
      in
      place (Hashtbl.hash k land mask))
    tbl;
  { mask; slots }

type kernel =
  | Linear of { coeffs : float array; inv : float array; crisp_k : Interval.t }
      (** [inv.(i) = 1. /. coeffs.(i)]; [crisp_k] is the constant side *)
  | Product  (** q0 = q1 ⊗ q2; the target position selects mul or div *)
  | Seed of { nominal : bool; off : int }
      (** generative: trapezoid at [seedbuf.(off .. off+3)] *)

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

type t = {
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
          probed lock-free; see {!memo_snapshot} / {!memo_publish} *)
  mutable mmaster : float FTbl.t;
      (** canonical mutable form behind [fmemo], guarded by [mlock] *)
  mlock : Mutex.t;  (** serialises {!memo_publish} *)
}

(* Memo entries are pure functions of their key, so sharing them across
   engines, threads and domains is sound.  A published snapshot is never
   mutated again — readers probe it without synchronisation; a publish
   merges the novelties into the master table under [mlock], rebuilds
   the flat form and swaps the atomic reference ([Atomic.set]'s release
   pairs with [Atomic.get]'s acquire, making the fresh array's contents
   visible).  The cap only bounds memory: once reached, later novelties
   simply stay engine-local and get recomputed. *)
let memo_cap = 1 lsl 18

let memo_snapshot t = Atomic.get t.fmemo

let memo_publish t novel =
  Mutex.lock t.mlock;
  let master = t.mmaster in
  let grew = ref false in
  FTbl.iter
    (fun k v ->
      if FTbl.length master < memo_cap && not (FTbl.mem master k) then begin
        FTbl.add master k v;
        grew := true
      end)
    novel;
  if !grew then Atomic.set t.fmemo (flat_of_tbl master);
  Mutex.unlock t.mlock

let compile_seconds =
  Metrics.histogram "flames_schedule_compile_seconds"
    ~help:"Latency of compiling a model into a flat propagation schedule"

let next_uid = Atomic.make 0

let of_model (model : Model.t) =
  Trace.with_span ~record:compile_seconds "schedule_compile" @@ fun () ->
  let qindex = Hashtbl.create 64 in
  let rev_qty = ref [] in
  let nq = ref 0 in
  let intern q =
    match Hashtbl.find_opt qindex q with
    | Some i -> i
    | None ->
      let i = !nq in
      incr nq;
      Hashtbl.add qindex q i;
      rev_qty := q :: !rev_qty;
      i
  in
  let seedbuf_rev = ref [] in
  let seedlen = ref 0 in
  let push_interval (set : Interval.t) =
    let off = !seedlen in
    seedbuf_rev :=
      set.Interval.beta :: set.Interval.alpha :: set.Interval.m2
      :: set.Interval.m1 :: !seedbuf_rev;
    seedlen := off + 4;
    off
  in
  let instrs =
    List.map
      (fun (c : Constr.t) ->
        let vars = Array.of_list (List.map intern (Constr.vars c)) in
        let kernel =
          match c.Constr.form with
          | Constr.Linear (terms, k) ->
            let coeffs = Array.of_list (List.map fst terms) in
            Linear
              {
                coeffs;
                inv = Array.map (fun ci -> 1. /. ci) coeffs;
                crisp_k = Interval.crisp k;
              }
          | Constr.Product _ -> Product
          | Constr.Nominal (_, set) -> Seed { nominal = true; off = push_interval set }
          | Constr.Bound (_, set) -> Seed { nominal = false; off = push_interval set }
        in
        let guards =
          Array.of_list
            (List.map (fun (q, set) -> (intern q, set)) c.Constr.guards)
        in
        {
          name = c.Constr.name;
          kernel;
          vars;
          assumptions = c.Constr.assumptions;
          degree = c.Constr.degree;
          guards;
        })
      model.Model.constraints
    |> Array.of_list
  in
  let nq = !nq in
  let qty = Array.of_list (List.rev !rev_qty) in
  let qname = Array.map (fun q -> Format.asprintf "%a" Quantity.pp q) qty in
  let seedbuf = Array.of_list (List.rev !seedbuf_rev) in
  let seeds =
    Array.to_list instrs
    |> List.mapi (fun i ins -> (i, ins))
    |> List.filter_map (fun (i, ins) ->
           match ins.kernel with Seed _ -> Some i | Linear _ | Product -> None)
    |> Array.of_list
  in
  (* Firing plan.  The interpreter's per-quantity constraint index is
     built by consing in model order, so the list it walks is in
     *reverse* model order; within one constraint each variable other
     than the dequeued one is fired at in [vars] order.  The plan must
     replay exactly that sequence. *)
  let by_var = Array.make nq [] in
  Array.iteri
    (fun ci (ins : instr) ->
      Array.iter (fun qid -> by_var.(qid) <- ci :: by_var.(qid)) ins.vars)
    instrs;
  (* fid = dense id of an (instruction, target-position) pair *)
  let foffset = Array.make (Array.length instrs + 1) 0 in
  Array.iteri
    (fun ci (ins : instr) ->
      foffset.(ci + 1) <- foffset.(ci) + Array.length ins.vars)
    instrs;
  let plan =
    Array.init nq (fun qid ->
        by_var.(qid)
        |> List.concat_map (fun ci ->
               let ins = instrs.(ci) in
               match ins.kernel with
               | Seed _ -> []
               | Linear _ | Product ->
                 let n = Array.length ins.vars in
                 let rec targets i acc =
                   if i < 0 then acc
                   else if ins.vars.(i) = qid then targets (i - 1) acc
                   else begin
                     let srcs = Array.make (n - 1) 0 in
                     for k = 0 to n - 1 do
                       if k < i then srcs.(k) <- ins.vars.(k)
                       else if k > i then srcs.(k - 1) <- ins.vars.(k)
                     done;
                     targets (i - 1)
                       ({
                          instr = ci;
                          target = ins.vars.(i);
                          tpos = i;
                          srcs;
                          fid = foffset.(ci) + i;
                        }
                       :: acc)
                   end
                 in
                 targets (n - 1) [])
        |> Array.of_list)
  in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    model;
    qty;
    qname;
    qindex;
    instrs;
    plan;
    nfirings = foffset.(Array.length instrs);
    seeds;
    seedbuf;
    reports = None;
    rlock = Mutex.create ();
    fmemo = Atomic.make flat_empty;
    mmaster = FTbl.create 1024;
    mlock = Mutex.create ();
  }

let compile ?config netlist = of_model (Model.compile ?config netlist)
let model t = t.model
let seed_interval t off =
  Interval.make ~m1:t.seedbuf.(off) ~m2:t.seedbuf.(off + 1)
    ~alpha:t.seedbuf.(off + 2) ~beta:t.seedbuf.(off + 3)

(* Simulator-side predictions.  The raw sensitivity sweep depends only
   on the netlist, so a schedule memoizes it; the floor/threshold
   filtering stays per-call (callers tune both).  The shapes below
   replicate [Diagnose.simulator_predictions] exactly — that function
   now delegates here so both paths share one definition. *)

let raw_reports netlist =
  if netlist.Flames_circuit.Netlist.ports <> [] then
    (* an externally driven circuit cannot be simulated on its own *)
    []
  else
    match Flames_sim.Sensitivity.analyze netlist with
    | exception
        ( Flames_sim.Mna.No_convergence _ | Flames_sim.Linalg.Singular
        | Flames_circuit.Netlist.Ill_formed _ ) ->
      []
    | reports -> reports

let predictions_of_reports model reports ~floor ~threshold =
  List.filter_map
    (fun (r : Flames_sim.Sensitivity.node_report) ->
      let supporters = Flames_sim.Sensitivity.supporters ~threshold r in
      if supporters = [] then
        (* nothing influences the node: it is pinned by trusted sources
           and the constraint model derives it exactly *)
        None
      else
        let spread = Float.max r.Flames_sim.Sensitivity.total_spread floor in
        let env =
          supporters
          |> List.filter_map (fun c ->
                 match Model.assumption_id model c with
                 | id -> Some id
                 | exception Not_found -> None (* trusted component *))
          |> Env.of_list
        in
        Some
          ( Quantity.voltage r.Flames_sim.Sensitivity.node,
            Interval.number r.Flames_sim.Sensitivity.nominal ~spread,
            env ))
    reports

let reports t =
  Mutex.lock t.rlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.rlock)
    (fun () ->
      match t.reports with
      | Some r -> r
      | None ->
        let r = raw_reports t.model.Model.netlist in
        t.reports <- Some r;
        r)

let predictions t ~floor ~threshold =
  predictions_of_reports t.model (reports t) ~floor ~threshold
