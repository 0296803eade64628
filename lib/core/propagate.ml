module Interval = Flames_fuzzy.Interval
module Kernel = Flames_fuzzy.Kernel
module Arith = Flames_fuzzy.Arith
module Env = Flames_atms.Env
module Nogood = Flames_atms.Nogood
module Candidates = Flames_atms.Candidates
module Quantity = Flames_circuit.Quantity
module Metrics = Flames_obs.Metrics
module Trace = Flames_obs.Trace

let steps_total =
  Metrics.counter "flames_propagate_steps_total"
    ~help:"Quantities dequeued by the local constraint propagator"

let conflicts_total =
  Metrics.counter "flames_propagate_conflicts_total"
    ~help:"Coincidence conflicts recorded during propagation"

let schedule_run_seconds =
  Metrics.histogram "flames_schedule_run_seconds"
    ~help:"Latency of one compiled-schedule propagation run to quiescence"

type limits = {
  max_values_per_cell : int;
  max_combinations : int;
  max_steps : int;
  min_conflict_degree : float;
}

let default_limits =
  {
    max_values_per_cell = 12;
    max_combinations = 256;
    max_steps = 100_000;
    min_conflict_degree = 0.02;
  }

(* Consistency memo: the engine's dominant win.  The degree
   between two values depends only on their intervals and their
   observational flags, and the fault sweep recomputes the same pairs
   run after run.  Keys are 9 flat floats (an operation tag plus both
   trapezoids); a scratch probe key is reused across lookups.  Two
   levels: a published snapshot probed lock-free
   ({!Schedule.memo_snapshot}), then a per-engine table of novel
   entries, merged back on {!Schedule.memo_publish} so later engines
   start from everything earlier ones computed. *)
module FTbl = Schedule.FTbl

(* Cells are indexed by the schedule's dense quantity ids, and every
   cell is kept sorted by [Value.strength] (see [add_value]).
   Quantities outside the model (ad-hoc observations) are interned
   dynamically per engine; the shared schedule is never mutated. *)
type t = {
  model : Model.t;
  limits : limits;
  budget : Budget.t;
  db : Nogood.t;
  sched : Schedule.t;
  mutable carr : Value.t list array;  (** qid -> cell *)
  mutable versions : int array;  (** qid -> cell mutation count *)
  mutable dyn_names : string array;  (** reasons for dynamic qids *)
  mutable nq : int;
  dynq : (Quantity.t, int) Hashtbl.t;
  gdeg : float array;  (** instr -> cached guard degree *)
  gstamp : int array array;  (** instr -> guard versions; [||] = stale *)
  pinned : Interval.t option array array;  (** instr -> pinned evidence *)
  queue : int Queue.t;
  mutable queued : bool array;
  memo : float FTbl.t;  (** L1: entries this engine computed itself *)
  l2 : Schedule.flat;
      (** immutable shared snapshot taken at engine creation; probed
          lock-free (see {!Schedule.memo_snapshot}) *)
  probe : float array;
  kscratch : float array;  (** {!Kernel} breakpoint scratch, 8 floats *)
  fstamp : int array array;
      (** fid -> versions of (srcs, target, nogood era) right after the
          firing last ran clean; [[||]] = must run (see [exec_firing]) *)
  fgdeg : float array;  (** fid -> guard degree the stamped firing used *)
  mutable era : int;  (** nogood-db mutation count *)
  mutable dirty : bool;
      (** some insertion since the last reset evicted or filtered a
          resident value — the running firing is not stampable *)
  mutable steps : int;
  mutable seeded : bool;
  mutable truncated : bool;  (** a run stopped at a budget check-point *)
}

let names t id = Model.assumption_name t.model id

let create ?(limits = default_limits) ?budget ?schedule model =
  let sched =
    match schedule with Some s -> s | None -> Schedule.of_model model
  in
  let nq = Array.length sched.Schedule.qty in
  let ni = Array.length sched.Schedule.instrs in
  {
    model;
    limits;
    budget = (match budget with Some b -> b | None -> Budget.fresh ());
    db = Nogood.create ();
    sched;
    carr = Array.make nq [];
    versions = Array.make nq 0;
    dyn_names = [||];
    nq;
    dynq = Hashtbl.create 8;
    gdeg = Array.make ni 1.;
    gstamp = Array.make ni [||];
    pinned =
      Array.map
        (fun (ins : Schedule.instr) ->
          Array.make (Array.length ins.Schedule.guards) None)
        sched.Schedule.instrs;
    queue = Queue.create ();
    queued = Array.make nq false;
    memo = FTbl.create 1024;
    l2 = Schedule.memo_snapshot sched;
    probe = Array.make 9 0.;
    kscratch = Array.make 8 0.;
    fstamp = Array.make sched.Schedule.nfirings [||];
    fgdeg = Array.make sched.Schedule.nfirings 1.;
    era = 0;
    dirty = false;
    steps = 0;
    seeded = false;
    truncated = false;
  }

let qname_of t qid =
  let stat = Array.length t.sched.Schedule.qname in
  if qid < stat then t.sched.Schedule.qname.(qid)
  else t.dyn_names.(qid - stat)

(* Intern a quantity outside the static schedule (ad-hoc observation
   targets). *)
let qid_of t q =
  match Hashtbl.find_opt t.sched.Schedule.qindex q with
  | Some i -> i
  | None -> begin
    match Hashtbl.find_opt t.dynq q with
    | Some i -> i
    | None ->
      let i = t.nq in
      let cap = Array.length t.carr in
      if i >= cap then begin
        let cap' = (2 * cap) + 8 in
        let carr' = Array.make cap' [] in
        Array.blit t.carr 0 carr' 0 cap;
        t.carr <- carr';
        let versions' = Array.make cap' 0 in
        Array.blit t.versions 0 versions' 0 cap;
        t.versions <- versions';
        let queued' = Array.make cap' false in
        Array.blit t.queued 0 queued' 0 cap;
        t.queued <- queued'
      end;
      let stat = Array.length t.sched.Schedule.qname in
      let dyn = Array.make (i - stat + 1) "" in
      Array.blit t.dyn_names 0 dyn 0 (Array.length t.dyn_names);
      dyn.(i - stat) <- Format.asprintf "%a" Quantity.pp q;
      t.dyn_names <- dyn;
      Hashtbl.add t.dynq q i;
      t.nq <- i + 1;
      i
  end

let enqueue t qid =
  if not t.queued.(qid) then begin
    t.queued.(qid) <- true;
    Queue.add qid t.queue
  end

(* O(1) classification of a trapezoid pair, shortcutting the piecewise
   integration in the two overwhelmingly common cases.

   - Cores overlap: [max (a.m1, b.m1)] is a merged breakpoint lying in
     both closed cores, where [Interval.membership] is exactly [1.], so
     [Piecewise.height_of_min] returns exactly [1.]; and [Consistency.dc]
     is clamped to [0, 1], so [max dc height] is exactly [1.] without
     computing dc.  No conflict can be recorded.
   - Supports strictly disjoint: one membership is [0.] at every point,
     so the height is exactly [0.]; and [Interval.overlap] is false, so
     [Consistency.dc] is exactly [0.].

   Everything in between (flank-only overlap) goes through the memoized
   exact kernel. *)
let pair_class (a : Interval.t) (b : Interval.t) =
  if Float.max a.Interval.m1 b.Interval.m1
     <= Float.min a.Interval.m2 b.Interval.m2
  then 1
  else if
    Float.max
      (a.Interval.m1 -. a.Interval.alpha)
      (b.Interval.m1 -. b.Interval.alpha)
    > Float.min
        (a.Interval.m2 +. a.Interval.beta)
        (b.Interval.m2 +. b.Interval.beta)
  then -1
  else 0

let fill_probe t tag (ai : Interval.t) (bi : Interval.t) =
  let p = t.probe in
  p.(0) <- tag;
  p.(1) <- ai.Interval.m1;
  p.(2) <- ai.Interval.m2;
  p.(3) <- ai.Interval.alpha;
  p.(4) <- ai.Interval.beta;
  p.(5) <- bi.Interval.m1;
  p.(6) <- bi.Interval.m2;
  p.(7) <- bi.Interval.alpha;
  p.(8) <- bi.Interval.beta

(* Memo keys are canonical so mirrored pairs share one entry: an
   (observational, derived) pair is keyed tag 0 with the measured side
   first regardless of argument order, and the symmetric height-only
   computations (same-flag pairs and guard matching) are keyed tag 2
   with the operands in lexicographic [Float.compare] order —
   [Piecewise.height_of_min] is bit-symmetric, since swapping the
   operands negates both sides of the crossing ratio and IEEE division
   cancels the two sign flips exactly. *)
let compute_obs t (mi : Interval.t) (ni : Interval.t) =
  fill_probe t 0. mi ni;
  match Schedule.flat_find t.l2 t.probe with
  | dc -> dc
  | exception Not_found -> (
    match FTbl.find t.memo t.probe with
    | dc -> dc
    | exception Not_found ->
      let dc = Kernel.consist ~scratch:t.kscratch ~measured:mi ~nominal:ni in
      FTbl.add t.memo (Array.copy t.probe) dc;
      dc)

let iv_leq (a : Interval.t) (b : Interval.t) =
  let c = Float.compare a.Interval.m1 b.Interval.m1 in
  if c <> 0 then c < 0
  else
    let c = Float.compare a.Interval.m2 b.Interval.m2 in
    if c <> 0 then c < 0
    else
      let c = Float.compare a.Interval.alpha b.Interval.alpha in
      if c <> 0 then c < 0
      else Float.compare a.Interval.beta b.Interval.beta <= 0

let compute_height t (ai : Interval.t) (bi : Interval.t) =
  let a, b = if iv_leq ai bi then (ai, bi) else (bi, ai) in
  fill_probe t 2. a b;
  match Schedule.flat_find t.l2 t.probe with
  | h -> h
  | exception Not_found -> (
    match FTbl.find t.memo t.probe with
    | h -> h
    | exception Not_found ->
      let h = Kernel.height_of_min ~scratch:t.kscratch a b in
      FTbl.add t.memo (Array.copy t.probe) h;
      h)

(* Coincidence analysis (fig. 4) between a new and a resident value of
   the same quantity, memoized: between a measurement-derived and a
   model-side value the paper's area-based Dc is used, oriented from the
   observational side (taken together with the height of the pointwise
   minimum, [Kernel.consist]); between two values of the same side the
   symmetric possibility of matching (that height alone) replaces it,
   since the area ratio is not meaningful when neither value is a
   reference.  A conflict of degree 1 − Dc is recorded against the
   union of the environments. *)
let consistency t (a : Value.t) (b : Value.t) =
  let ai = a.Value.interval and bi = b.Value.interval in
  match pair_class ai bi with
  | 1 -> 1.
  | -1 -> 0.
  | _ -> (
    match (a.Value.observational, b.Value.observational) with
    | true, false -> compute_obs t ai bi
    | false, true -> compute_obs t bi ai
    | true, true | false, false -> compute_height t ai bi)

(* Memoized possibility of matching against a (constant) guard set. *)
let height t (evidence : Interval.t) (set : Interval.t) =
  match pair_class evidence set with
  | 1 -> 1.
  | -1 -> 0.
  | _ -> compute_height t evidence set

let record_conflict t qid (a : Value.t) (b : Value.t) dc =
  let degree =
    Float.min (1. -. dc) (Float.min a.Value.degree b.Value.degree)
  in
  if degree >= t.limits.min_conflict_degree then begin
    let env = Env.union a.Value.env b.Value.env in
    let reason = qname_of t qid in
    if Nogood.record t.db ~reason env degree then begin
      t.era <- t.era + 1;
      Metrics.incr conflicts_total
    end
  end

(* A resident value [w] makes a newcomer [v] redundant either by
   subsumption ([Value.subsumes]) or by being an exact duplicate up to
   derivation history: the same interval under the same environment with
   at least the degree carries no new information, whatever path
   produced it.  The conjuncts run cheapest-first: the observational
   flag and degree compare are two loads, the interval containment four
   float compares, and the [History.subset] string-set walk runs only on
   pairs that pass everything else. *)
let redundant (w : Value.t) (v : Value.t) =
  w.Value.observational = v.Value.observational
  && w.Value.degree >= v.Value.degree
  && ((Interval.contains v.Value.interval w.Value.interval
      && Env.subset w.Value.env v.Value.env
      && Value.History.subset w.Value.history v.Value.history)
     || (Env.equal w.Value.env v.Value.env
        && Interval.equal_rel w.Value.interval v.Value.interval))

let add_value t qid (v : Value.t) =
  let residents = t.carr.(qid) in
  if List.exists (fun w -> redundant w v) residents then false
  else if Nogood.is_nogood t.db v.Value.env then false
  else begin
    List.iter
      (fun w ->
        let dc = consistency t v w in
        if dc < 1. then record_conflict t qid v w dc)
      residents;
    (* One fused pass filtering the residents [v] makes redundant and
       inserting [v]: residents are kept sorted by [Value.strength] as an
       invariant, so inserting [v] before the first resident it does not
       lose to is exactly the stable sort of [v :: filtered].
       Filtered-out residents flag the cell dirty: the running firing
       lost an absorption witness and must not be stamped as a no-op. *)
    let rec ins placed = function
      | [] -> if placed then [] else [ v ]
      | w :: rest ->
        if redundant v w then begin
          t.dirty <- true;
          ins placed rest
        end
        else if placed then w :: ins placed rest
        else if Value.strength v w <= 0 then v :: w :: ins true rest
        else w :: ins placed rest
    in
    let kept = ins false residents in
    let rec take n = function
      | [] -> []
      | x :: rest ->
        if n = 0 then begin
          t.dirty <- true;
          []
        end
        else x :: take (n - 1) rest
    in
    let kept = take t.limits.max_values_per_cell kept in
    t.carr.(qid) <- kept;
    t.versions.(qid) <- t.versions.(qid) + 1;
    let survived = List.exists (fun w -> w == v) kept in
    if survived then ignore (Budget.charge_envs t.budget 1);
    survived
  end

(* Possibility that the guards of instruction [i] are satisfied, judged
   on the observational evidence for each guard quantity: pinned
   evidence first, else the strongest observational resident (a
   measurement when available — the first in the sorted cell), not every
   derived echo.  A guard without evidence passes: the engine assumes
   the nominal operating region a priori, as the paper does.  Cached
   under a version stamp and recomputed only when some guard quantity's
   cell changed since the last evaluation.  Over-invalidation is safe;
   the stamp tracks exactly the cells the computation reads. *)
let guard_degree t i =
  let ins = t.sched.Schedule.instrs.(i) in
  let guards = ins.Schedule.guards in
  let ng = Array.length guards in
  if ng = 0 then 1.
  else begin
    let stamp = t.gstamp.(i) in
    let fresh =
      Array.length stamp = ng
      &&
      let ok = ref true in
      Array.iteri
        (fun gi (qid, _) -> if stamp.(gi) <> t.versions.(qid) then ok := false)
        guards;
      !ok
    in
    if fresh then t.gdeg.(i)
    else begin
      let acc = ref 1. in
      let stamp = Array.make ng 0 in
      Array.iteri
        (fun gi (qid, set) ->
          stamp.(gi) <- t.versions.(qid);
          let best_interval =
            match t.pinned.(i).(gi) with
            | Some _ as pinned -> pinned
            | None ->
              List.find_opt (fun v -> v.Value.observational) t.carr.(qid)
              |> Option.map (fun v -> v.Value.interval)
          in
          match best_interval with
          | None -> ()
          | Some interval -> acc := Float.min !acc (height t interval set))
        guards;
      t.gstamp.(i) <- stamp;
      t.gdeg.(i) <- !acc;
      !acc
    end
  end

(* Solve one instruction for the target at [tpos] given the chosen
   source values; replicates [Constr.solve_for] including its float
   gather order (terms added last-to-first onto crisp 0). *)
let crisp0 = Interval.crisp 0.

let solve (ins : Schedule.instr) tpos (chosen : Value.t array) =
  match ins.Schedule.kernel with
  | Schedule.Linear { coeffs; inv; crisp_k } ->
    let n = Array.length coeffs in
    let total = ref crisp0 in
    for i = n - 1 downto 0 do
      if i <> tpos then begin
        let j = if i < tpos then i else i - 1 in
        total :=
          Arith.add !total (Arith.scale coeffs.(i) chosen.(j).Value.interval)
      end
    done;
    Some (Arith.scale inv.(tpos) (Arith.sub crisp_k !total))
  | Schedule.Product -> begin
    let a = chosen.(0).Value.interval and b = chosen.(1).Value.interval in
    if tpos = 0 then Some (Arith.mul a b)
    else (try Some (Arith.div a b) with Arith.Undefined _ -> None)
  end
  | Schedule.Seed _ -> None

let fire t (f : Schedule.firing) ~gdeg =
  let ins = t.sched.Schedule.instrs.(f.Schedule.instr) in
  let name = ins.Schedule.name in
  let nsrc = Array.length f.Schedule.srcs in
  let cands =
    Array.map
      (fun qid ->
        Array.of_list
          (List.filter
             (fun (v : Value.t) -> not (Value.History.mem name v.Value.history))
             t.carr.(qid)))
      f.Schedule.srcs
  in
  let some_empty = ref false in
  Array.iter (fun c -> if Array.length c = 0 then some_empty := true) cands;
  if gdeg <= 0. || !some_empty then []
  else begin
    let budget = ref t.limits.max_combinations in
    let results = ref [] in
    let chosen = Array.make nsrc cands.(0).(0) in
    (* descend first source outermost; leaves are processed while the
       combination budget lasts, and results are prepended *)
    let rec combos si =
      if si = nsrc then begin
        if !budget > 0 then begin
          decr budget;
          match solve ins f.Schedule.tpos chosen with
          | None -> ()
          | Some interval ->
            let env = ref ins.Schedule.assumptions
            and degree = ref (Float.min ins.Schedule.degree gdeg)
            and obs = ref false
            and hist = ref Value.History.empty in
            (* fold the choices in reverse source order *)
            for j = nsrc - 1 downto 0 do
              let v = chosen.(j) in
              env := Env.union !env v.Value.env;
              degree := Float.min !degree v.Value.degree;
              obs := !obs || v.Value.observational;
              hist := Value.History.union !hist v.Value.history
            done;
            if not (Nogood.is_nogood t.db !env) then
              results :=
                Value.derived name interval !env !degree ~observational:!obs
                  ~history:!hist
                :: !results
        end
      end
      else
        Array.iter
          (fun v ->
            if !budget > 0 then begin
              chosen.(si) <- v;
              combos (si + 1)
            end)
          cands.(si)
    in
    combos 0;
    !results
  end

let seed t =
  if not t.seeded then begin
    t.seeded <- true;
    Array.iter
      (fun i ->
        let ins = t.sched.Schedule.instrs.(i) in
        match ins.Schedule.kernel with
        | Schedule.Seed { nominal; off } ->
          let set = Schedule.seed_interval t.sched off in
          let qid = ins.Schedule.vars.(0) in
          let v =
            if nominal then Value.given set ins.Schedule.assumptions
            else Value.bound set ins.Schedule.assumptions
          in
          if add_value t qid v then enqueue t qid
        | Schedule.Linear _ | Schedule.Product -> ())
      t.sched.Schedule.seeds
  end

let observe t q interval =
  seed t;
  let qid = qid_of t q in
  if add_value t qid (Value.measured interval) then enqueue t qid

let predict t ?degree q interval env =
  seed t;
  let qid = qid_of t q in
  if add_value t qid (Value.given ?degree interval env) then enqueue t qid

(* Pinning evidence invalidates the guard cache. *)
let set_guard_evidence t evidence =
  Array.iteri
    (fun i (ins : Schedule.instr) ->
      let guards = ins.Schedule.guards in
      if Array.length guards > 0 then begin
        t.pinned.(i) <-
          Array.map
            (fun (qid, _) ->
              let q = t.sched.Schedule.qty.(qid) in
              List.find_map
                (fun (q', v) -> if Quantity.equal q q' then Some v else None)
                evidence)
            guards;
        t.gstamp.(i) <- [||]
      end)
    t.sched.Schedule.instrs

exception Step_budget
exception Budget_tripped

(* Execute one planned firing, or skip it when it is provably a no-op.

   A firing is a pure function of its source cells, the target's
   residents, the instruction's guard degree and the nogood database.
   If none of those changed since the firing last ran — versions of the
   sources and target, the nogood era and the guard degree all match
   the stamp recorded then — re-running it reproduces values that are
   each absorbed without any state change: every result is either
   resident (rejected by the redundancy scan before any conflict is
   examined) or blocked by the monotonically grown nogood database.

   The stamp is only recorded when that absorption argument is airtight:
   no insertion during the firing truncated or filtered a resident away
   (either can remove an absorption witness, [t.dirty]), and the target
   is not one of its own sources (the candidate snapshot would differ on
   re-run).  The reference engine in [Flames_check] re-fires
   unconditionally and re-derives the same values just to throw them
   away. *)
let exec_firing t (f : Schedule.firing) =
  let gdeg = guard_degree t f.Schedule.instr in
  let fid = f.Schedule.fid in
  let st = t.fstamp.(fid) in
  let nsrc = Array.length f.Schedule.srcs in
  let unchanged =
    Array.length st = nsrc + 2
    && Int64.bits_of_float t.fgdeg.(fid) = Int64.bits_of_float gdeg
    &&
    let ok = ref (st.(nsrc) = t.versions.(f.Schedule.target)
                  && st.(nsrc + 1) = t.era) in
    Array.iteri
      (fun i s -> if st.(i) <> t.versions.(s) then ok := false)
      f.Schedule.srcs;
    !ok
  in
  if not unchanged then begin
    t.dirty <- false;
    List.iter
      (fun v ->
        if add_value t f.Schedule.target v then
          enqueue t f.Schedule.target)
      (fire t f ~gdeg);
    if
      t.dirty
      || Array.exists (fun s -> s = f.Schedule.target) f.Schedule.srcs
    then t.fstamp.(fid) <- [||]
    else begin
      let st =
        match t.fstamp.(fid) with
        | st when Array.length st = nsrc + 2 -> st
        | _ ->
          let st = Array.make (nsrc + 2) 0 in
          t.fstamp.(fid) <- st;
          st
      in
      Array.iteri (fun i s -> st.(i) <- t.versions.(s)) f.Schedule.srcs;
      st.(nsrc) <- t.versions.(f.Schedule.target);
      st.(nsrc + 1) <- t.era;
      t.fgdeg.(fid) <- gdeg
    end
  end

let run t =
  Trace.with_span ~record:schedule_run_seconds "schedule_run" @@ fun () ->
  seed t;
  let steps0 = t.steps in
  let finish () =
    Metrics.incr ~by:(t.steps - steps0) steps_total;
    (* Seed the next engine's shared snapshot with what this run had to
       compute itself; a handful of novelties is not worth a copy. *)
    if FTbl.length t.memo >= 512 then Schedule.memo_publish t.sched t.memo
  in
  let plan = t.sched.Schedule.plan in
  let nplan = Array.length plan in
  try
    while not (Queue.is_empty t.queue) do
      let qid = Queue.pop t.queue in
      t.queued.(qid) <- false;
      t.steps <- t.steps + 1;
      if t.steps > t.limits.max_steps then raise Step_budget;
      if
        (not (Budget.charge_steps t.budget 1))
        || Budget.tripped t.budget
      then raise Budget_tripped;
      if qid < nplan then Array.iter (exec_firing t) plan.(qid)
    done;
    finish ()
  with
  | Step_budget ->
    finish ();
    t.truncated <- true;
    Flames_obs.Log.warn "propagation stopped after %d steps (budget exhausted)"
      t.steps
  | Budget_tripped ->
    finish ();
    t.truncated <- true

(* A pure read: unlike [qid_of], a query for an unknown quantity must
   not intern it, so quiescent engines (e.g. the cached
   nominal-prediction engine, shared across requests) can be read
   concurrently.  Cells are kept sorted, strongest first. *)
let values t q =
  match Hashtbl.find_opt t.sched.Schedule.qindex q with
  | Some i -> t.carr.(i)
  | None -> (
    match Hashtbl.find_opt t.dynq q with Some i -> t.carr.(i) | None -> [])

let cells t =
  let stat = t.sched.Schedule.qty in
  Hashtbl.fold (fun q i acc -> (q, t.carr.(i)) :: acc) t.dynq
    (List.init (Array.length stat) (fun i -> (stat.(i), t.carr.(i))))
  |> List.filter (fun (_, vs) -> vs <> [])
  |> List.sort (fun (a, _) (b, _) -> Quantity.compare a b)

let best_value t ?observational q =
  let vs = values t q in
  let vs =
    match observational with
    | None -> vs
    | Some side -> List.filter (fun v -> v.Value.observational = side) vs
  in
  let tightest best v =
    match best with
    | None -> Some v
    | Some b ->
      if Interval.width v.Value.interval < Interval.width b.Value.interval then
        Some v
      else best
  in
  List.fold_left tightest None vs

let conflicts t = Candidates.of_nogoods (Nogood.entries t.db)
let nogood_db t = t.db
let model t = t.model
let steps_used t = t.steps
let truncated t = t.truncated
