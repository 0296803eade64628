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

type measurement = { id : int; quantity : Quantity.t; interval : Interval.t }

type t = {
  netlist : Netlist.t;
  model : Model.t;
  schedule : Schedule.t;
  limits : Propagate.limits option;
  budget_spec : Budget.spec;
  degree : float;
  predictions : (Quantity.t * Interval.t * Flames_atms.Env.t) list;
  prediction : Propagate.t;  (** nominal-only pass, judged against once *)
  fault_point : string -> unit;
  mutable measurements : measurement list;  (** insertion order *)
  mutable next_id : int;
  mutable live : Propagate.t option;  (** [None] = dirty, rebuilt lazily *)
  mutable cached : Diagnose.result option;
  mutable steps : int;
}

let sessions_active =
  Flames_obs.Metrics.gauge "flames_session_active"
    ~help:"Diagnosis sessions currently alive in the process"

let session_steps_total =
  Flames_obs.Metrics.counter "flames_session_steps_total"
    ~help:"Session mutations (measurement adds, retractions, refinements)"

let session_rebuilds_total =
  Flames_obs.Metrics.counter "flames_session_rebuilds_total"
    ~help:"Full propagation rebuilds performed by sessions"

let observations t =
  List.map (fun m -> (m.quantity, m.interval)) t.measurements

(* One full pass over the current measurement list — the same stage
   [Diagnose.run] performs, so a rebuilt engine is the batch engine. *)
let rebuild t =
  Flames_obs.Metrics.incr session_rebuilds_total;
  let engine =
    Diagnose.full_pass ?limits:t.limits ~schedule:t.schedule
      ~budget:(Budget.fresh ()) ~degree:t.degree ~model:t.model
      ~predictions:t.predictions ~observations:(observations t)
      ~guard_evidence:[] ()
  in
  t.live <- Some engine;
  engine

let ensure_live t =
  match t.live with Some engine -> engine | None -> rebuild t

let create ?config ?limits ?model ?schedule ?(budget_spec = Budget.unlimited)
    ?(prediction_floor = 1e-3)
    ?(sensitivity_threshold = 0.02) ?(prediction_degree = 0.95)
    ?(simulate_predictions = true) ?(fault_point = fun _ -> ()) netlist =
  Flames_obs.Trace.with_span
    ~args:[ ("circuit", netlist.Netlist.name) ]
    "session.create"
  @@ fun () ->
  (* same model acquisition as [Diagnose.run] *)
  let model, schedule =
    match schedule with
    | Some s -> (Schedule.model s, s)
    | None ->
      let m =
        match model with Some m -> m | None -> Model.compile ?config netlist
      in
      (m, Schedule.of_model m)
  in
  let predictions =
    if simulate_predictions then
      Schedule.predictions schedule ~floor:prediction_floor
        ~threshold:sensitivity_threshold
    else []
  in
  let degree = prediction_degree in
  (* the same per-schedule engine [Diagnose.run] judges against: a
     session on a cached schedule pays no prediction pass *)
  let prediction =
    Diagnose.prediction_engine ?limits ~budget:(Budget.fresh ()) ~schedule
      ~model ~degree ~floor:prediction_floor ~threshold:sensitivity_threshold
      ~simulate:simulate_predictions predictions
  in
  let t =
    {
      netlist;
      model;
      schedule;
      limits;
      budget_spec;
      degree;
      predictions;
      prediction;
      fault_point;
      measurements = [];
      next_id = 1;
      live = None;
      cached = None;
      steps = 0;
    }
  in
  Flames_obs.Metrics.gauge_add sessions_active 1.;
  Gc.finalise
    (fun _ -> Flames_obs.Metrics.gauge_add sessions_active (-1.))
    t;
  t

let bump t =
  t.steps <- t.steps + 1;
  t.cached <- None;
  Flames_obs.Metrics.incr session_steps_total

(* Mutations are transactional: the fault point fires before any state
   changes, so an injected mid-session fault aborts the step cleanly and
   the session stays reusable.  The measurement list is the sole source
   of truth; dependent state is invalidated and rebuilt lazily. *)
let add_measurement t quantity interval =
  t.fault_point "add";
  let m = { id = t.next_id; quantity; interval } in
  t.next_id <- t.next_id + 1;
  t.measurements <- t.measurements @ [ m ];
  bump t;
  t.live <- None;
  m

let find_measurement t ~id =
  List.find_opt (fun m -> m.id = id) t.measurements

let retract t ~id =
  match find_measurement t ~id with
  | None -> false
  | Some _ ->
    t.fault_point "retract";
    t.measurements <- List.filter (fun m -> m.id <> id) t.measurements;
    bump t;
    t.live <- None;
    true

let refine t ~id interval =
  match find_measurement t ~id with
  | None -> None
  | Some _ ->
    t.fault_point "refine";
    let refined = ref None in
    t.measurements <-
      List.map
        (fun m ->
          if m.id = id then begin
            let m = { m with interval } in
            refined := Some m;
            m
          end
          else m)
        t.measurements;
    bump t;
    t.live <- None;
    !refined

let diagnoses t =
  match t.cached with
  | Some r -> r
  | None ->
    Flames_obs.Trace.with_span
      ~args:[ ("circuit", t.netlist.Netlist.name) ]
      "session.diagnoses"
    @@ fun () ->
    let first = ensure_live t in
    t.fault_point "diagnose";
    let budget = Budget.start t.budget_spec in
    let r =
      Diagnose.analyze ?limits:t.limits ~schedule:t.schedule ~budget
        ~degree:t.degree
        ~model:t.model ~predictions:t.predictions ~prediction:t.prediction
        ~first t.netlist (observations t)
    in
    (* A budget-tripped analysis is sound but partial: keep it out of
       the cache so a later identical query retries in full. *)
    if not r.Diagnose.degraded then t.cached <- Some r;
    r

let estimations t = Estimation.of_diagnosis (diagnoses t)

let next_test ?points t =
  let ests = estimations t in
  let points =
    match points with
    | Some points -> points
    | None -> Best_test.test_points_of_netlist t.netlist
  in
  let measured q =
    List.exists (fun m -> Quantity.compare m.quantity q = 0) t.measurements
  in
  let candidates =
    List.filter
      (fun (p : Best_test.test_point) -> not (measured p.Best_test.quantity))
      points
  in
  Best_test.best ests candidates

let restore ?config ?limits ?model ?schedule ?budget_spec
    ?prediction_floor ?sensitivity_threshold ?prediction_degree
    ?simulate_predictions ?fault_point ~measurements ~next_id ~steps netlist =
  let t =
    create ?config ?limits ?model ?schedule ?budget_spec
      ?prediction_floor ?sensitivity_threshold ?prediction_degree
      ?simulate_predictions ?fault_point netlist
  in
  let ms =
    List.map (fun (id, quantity, interval) -> { id; quantity; interval })
      measurements
  in
  let max_id =
    List.fold_left
      (fun hi (m : measurement) ->
        if m.id <= 0 then invalid_arg "Session.restore: measurement id <= 0";
        if List.exists (fun (o : measurement) -> o != m && o.id = m.id) ms then
          invalid_arg "Session.restore: duplicate measurement id";
        Int.max hi m.id)
      0 ms
  in
  if next_id <= max_id then
    invalid_arg "Session.restore: next_id must exceed every measurement id";
  if steps < List.length ms then
    invalid_arg "Session.restore: fewer steps than surviving measurements";
  t.measurements <- ms;
  t.next_id <- next_id;
  t.steps <- steps;
  t.live <- None;
  t.cached <- None;
  t

let measurements t = t.measurements
let next_id t = t.next_id
let netlist t = t.netlist
let model t = t.model
let schedule t = Some t.schedule
let steps t = t.steps
