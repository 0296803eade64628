(* The original closure interpreter of the propagation engine, kept as
   the reference that [Oracle.check_compiled] diffs [Propagate] against.
   It discovers the firing order per dequeued quantity from the model's
   constraint list, re-fires every constraint unconditionally and
   re-sorts a cell after each insertion: no schedule, no memo, no
   version stamps.  It registers no metric, so it never moves the
   process-global counters the oracle reads. *)

module Interval = Flames_fuzzy.Interval
module Consistency = Flames_fuzzy.Consistency
module Piecewise = Flames_fuzzy.Piecewise
module Env = Flames_atms.Env
module Nogood = Flames_atms.Nogood
module Quantity = Flames_circuit.Quantity
module Budget = Flames_core.Budget
module Constr = Flames_core.Constr
module Model = Flames_core.Model
module Propagate = Flames_core.Propagate
module Value = Flames_core.Value

type t = {
  model : Model.t;
  limits : Propagate.limits;
  budget : Budget.t;
  cells : (Quantity.t, Value.t list ref) Hashtbl.t;
  by_var : (Quantity.t, Constr.t list) Hashtbl.t;
  db : Nogood.t;
  queue : Quantity.t Queue.t;
  queued : (Quantity.t, unit) Hashtbl.t;
  mutable steps : int;
  mutable seeded : bool;
  mutable truncated : bool;
  mutable guard_evidence : (Quantity.t * Interval.t) list;
}

let cell t q =
  match Hashtbl.find_opt t.cells q with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add t.cells q r;
    r

let create ?(limits = Propagate.default_limits) ?budget model =
  let by_var = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun q ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_var q) in
          Hashtbl.replace by_var q (c :: cur))
        (Constr.vars c))
    model.Model.constraints;
  {
    model;
    limits;
    budget = (match budget with Some b -> b | None -> Budget.fresh ());
    cells = Hashtbl.create 64;
    by_var;
    db = Nogood.create ();
    queue = Queue.create ();
    queued = Hashtbl.create 64;
    steps = 0;
    seeded = false;
    truncated = false;
    guard_evidence = [];
  }

let enqueue t q =
  if not (Hashtbl.mem t.queued q) then begin
    Hashtbl.add t.queued q ();
    Queue.add q t.queue
  end

(* Coincidence analysis (fig. 4) between a new and a resident value of the
   same quantity: between a measurement-derived and a model-side value the
   paper's area-based Dc is used, oriented from the observational side;
   between two values of the same side the symmetric possibility of
   matching (height of the pointwise minimum) replaces it, since the
   area ratio is not meaningful when neither value is a reference.
   A conflict of degree 1 − Dc is recorded against the union of the
   environments. *)
let consistency_between a b =
  let open Value in
  let height = Piecewise.height_of_min a.interval b.interval in
  match (a.observational, b.observational) with
  | true, false ->
    Float.max (Consistency.dc ~measured:a.interval ~nominal:b.interval) height
  | false, true ->
    Float.max (Consistency.dc ~measured:b.interval ~nominal:a.interval) height
  | true, true | false, false -> height

let record_conflict t q (a : Value.t) (b : Value.t) dc =
  let degree =
    Float.min (1. -. dc) (Float.min a.Value.degree b.Value.degree)
  in
  if degree >= t.limits.Propagate.min_conflict_degree then begin
    let env = Env.union a.Value.env b.Value.env in
    let reason = Format.asprintf "%a" Quantity.pp q in
    ignore (Nogood.record t.db ~reason env degree)
  end

(* A resident value makes a newcomer redundant either by proper
   subsumption or by being an exact duplicate up to derivation history:
   the same interval under the same environment with at least the degree
   carries no new information, whatever path produced it. *)
let redundant (w : Value.t) (v : Value.t) =
  Value.subsumes w v
  || (w.Value.observational = v.Value.observational
     && Env.equal w.Value.env v.Value.env
     && w.Value.degree >= v.Value.degree
     && Interval.equal_rel w.Value.interval v.Value.interval)

(* Insert a value into the quantity's cell.  Returns true when the cell
   gained information (and propagation should continue from q). *)
let add_value t q (v : Value.t) =
  let r = cell t q in
  if List.exists (fun w -> redundant w v) !r then false
  else if Nogood.is_nogood t.db v.Value.env then false
  else begin
    List.iter
      (fun w ->
        let dc = consistency_between v w in
        if dc < 1. then record_conflict t q v w dc)
      !r;
    let kept = v :: List.filter (fun w -> not (redundant v w)) !r in
    let kept = List.sort Value.strength kept in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    let kept = take t.limits.Propagate.max_values_per_cell kept in
    r := kept;
    (* the value may have been trimmed straight away; only requeue when it
       survived *)
    let survived = List.exists (fun w -> w == v) kept in
    if survived then ignore (Budget.charge_envs t.budget 1);
    survived
  end

let guard_degree t (c : Constr.t) =
  List.fold_left
    (fun acc (q, set) ->
      let pinned =
        List.find_map
          (fun (q', v) -> if Quantity.equal q q' then Some v else None)
          t.guard_evidence
      in
      let best_interval =
        match pinned with
        | Some v -> Some v
        | None -> begin
          (* judge on the strongest observational value (a measurement
             when available), not on every derived echo in the cell *)
          let evidence =
            List.filter (fun v -> v.Value.observational) !(cell t q)
            |> List.sort Value.strength
          in
          match evidence with
          | [] -> None
          | best :: _ -> Some best.Value.interval
        end
      in
      match best_interval with
      | None -> acc
      | Some interval -> Float.min acc (Piecewise.height_of_min interval set))
    1. c.Constr.guards

(* Enumerate antecedent combinations for firing [c] towards [target]. *)
let fire t (c : Constr.t) target =
  let srcs =
    List.filter (fun q -> not (Quantity.equal q target)) (Constr.sources c)
  in
  let usable (v : Value.t) =
    not (Value.History.mem c.Constr.name v.Value.history)
  in
  let candidate_lists =
    List.map
      (fun q -> List.filter_map
          (fun v -> if usable v then Some (q, v) else None)
          !(cell t q))
      srcs
  in
  let gdeg = guard_degree t c in
  if gdeg <= 0. || List.exists (fun l -> l = []) candidate_lists then []
  else begin
    let budget = ref t.limits.Propagate.max_combinations in
    let results = ref [] in
    let rec combos acc = function
      | [] ->
        if !budget > 0 then begin
          decr budget;
          let lookup q =
            List.find_map
              (fun (q', (v : Value.t)) ->
                if Quantity.equal q q' then Some v.Value.interval else None)
              acc
          in
          match Constr.solve_for c target lookup with
          | None -> ()
          | Some interval ->
            let env, degree, observational, history =
              List.fold_left
                (fun (env, degree, obs, hist) (_, (v : Value.t)) ->
                  ( Env.union env v.Value.env,
                    Float.min degree v.Value.degree,
                    obs || v.Value.observational,
                    Value.History.union hist v.Value.history ))
                (c.Constr.assumptions, Float.min c.Constr.degree gdeg, false,
                 Value.History.empty)
                acc
            in
            if not (Nogood.is_nogood t.db env) then
              results :=
                Value.derived c.Constr.name interval env degree ~observational
                  ~history
                :: !results
        end
      | values :: rest ->
        List.iter (fun choice -> combos (choice :: acc) rest) values
    in
    combos [] candidate_lists;
    !results
  end

let seed t =
  if not t.seeded then begin
    t.seeded <- true;
    List.iter
      (fun (c : Constr.t) ->
        match c.Constr.form with
        | Constr.Nominal (q, set) ->
          let v = Value.given set c.Constr.assumptions in
          if add_value t q v then enqueue t q
        | Constr.Bound (q, set) ->
          let v = Value.bound set c.Constr.assumptions in
          if add_value t q v then enqueue t q
        | Constr.Linear _ | Constr.Product _ -> ())
      t.model.Model.constraints
  end

let observe t q interval =
  seed t;
  if add_value t q (Value.measured interval) then enqueue t q

let predict t ?degree q interval env =
  seed t;
  if add_value t q (Value.given ?degree interval env) then enqueue t q

let set_guard_evidence t evidence = t.guard_evidence <- evidence

exception Step_budget
exception Budget_tripped

let run t =
  seed t;
  try
    while not (Queue.is_empty t.queue) do
      let q = Queue.pop t.queue in
      Hashtbl.remove t.queued q;
      t.steps <- t.steps + 1;
      if t.steps > t.limits.Propagate.max_steps then raise Step_budget;
      if
        (not (Budget.charge_steps t.budget 1))
        || Budget.tripped t.budget
      then raise Budget_tripped;
      let constraints = Option.value ~default:[] (Hashtbl.find_opt t.by_var q) in
      List.iter
        (fun c ->
          if not (Constr.is_generative c) then
            List.iter
              (fun target ->
                if not (Quantity.equal target q) then
                  List.iter
                    (fun v -> if add_value t target v then enqueue t target)
                    (fire t c target))
              (Constr.vars c))
        constraints
    done
  with Step_budget | Budget_tripped -> t.truncated <- true

let cells t =
  Hashtbl.fold
    (fun q r acc -> if !r = [] then acc else (q, !r) :: acc)
    t.cells []
  |> List.sort (fun (a, _) (b, _) -> Quantity.compare a b)

let best_value t ?observational q =
  let vs =
    match Hashtbl.find_opt t.cells q with
    | Some r -> List.sort Value.strength !r
    | None -> []
  in
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

let nogood_db t = t.db
let steps_used t = t.steps
let truncated t = t.truncated
