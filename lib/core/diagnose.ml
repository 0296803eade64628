module Interval = Flames_fuzzy.Interval
module Consistency = Flames_fuzzy.Consistency
module Env = Flames_atms.Env
module Candidates = Flames_atms.Candidates
module Quantity = Flames_circuit.Quantity
module Netlist = Flames_circuit.Netlist
module Component = Flames_circuit.Component
module Fault = Flames_circuit.Fault
module Metrics = Flames_obs.Metrics
module Trace = Flames_obs.Trace
module Context = Flames_obs.Context

(* Stage telemetry for the interactive loop (§6–§8): each stage gets a
   trace span and an always-on latency histogram, so a trace shows where
   one diagnosis spent its time and the registry shows where a whole
   workload did. *)
let runs_total =
  Metrics.counter "flames_diagnose_runs_total" ~help:"Completed diagnosis runs"

let degraded_total =
  Metrics.counter "flames_diagnose_degraded_total"
    ~help:"Diagnosis runs that returned degraded (budget-truncated) results"

let model_seconds =
  Metrics.histogram "flames_diagnose_model_seconds"
    ~help:"Model acquisition (constraint compilation) latency"

let simulate_seconds =
  Metrics.histogram "flames_diagnose_simulate_seconds"
    ~help:"Nominal-prediction simulation (sensitivity sweep) latency"

let fit_seconds =
  Metrics.histogram "flames_diagnose_fit_seconds"
    ~help:"Fault-model fit sweep latency (all suspects of one run)"

let rank_seconds =
  Metrics.histogram "flames_diagnose_rank_seconds"
    ~help:"Candidate ranking (hitting sets, diagnoses, single faults)"

type observation = Quantity.t * Interval.t

type symptom = {
  quantity : Quantity.t;
  measured : Interval.t;
  predicted : Interval.t option;
  verdict : Consistency.verdict option;
  signed_dc : float option;
}

type mode_estimate = {
  parameter : string;
  nominal : float;
  estimated : float option;
  fit_residual : float option;
  modes : (Fault.mode * float) list;
}

type suspect = {
  component : string;
  suspicion : float;
  explains : bool;
  estimates : mode_estimate list;
}

let fit_threshold = 0.05

type result = {
  netlist : Netlist.t;
  symptoms : symptom list;
  conflicts : Candidates.conflict list;
  suspects : suspect list;
  diagnoses : (string list * float) list;
  single_faults : (string * float) list;
  engine : Propagate.t;
  degraded : bool;
  trips : Budget.trip list;
}

(* The verdict uses the same consistency measure as the engine: the
   area-based Dc complemented by the possibility of matching, so a
   measurement that is merely wider than its prediction (but centred on
   it) reads as consistent. *)
let adjusted_verdict ~measured ~nominal =
  let v = Consistency.verdict ~measured ~nominal in
  let dc =
    Float.max v.Consistency.dc
      (Flames_fuzzy.Piecewise.height_of_min measured nominal)
  in
  let direction =
    if dc >= 0.995 then Consistency.Within else v.Consistency.direction
  in
  { Consistency.dc; direction }

let symptom_of prediction_engine (q, measured) =
  let predicted =
    Option.map
      (fun v -> v.Value.interval)
      (Propagate.best_value prediction_engine ~observational:false q)
  in
  let verdict =
    Option.map (fun nominal -> adjusted_verdict ~measured ~nominal) predicted
  in
  let signed_dc =
    Option.map
      (fun (v : Consistency.verdict) ->
        match v.Consistency.direction with
        | Consistency.Within -> v.Consistency.dc
        | Consistency.High ->
          if v.Consistency.dc = 0. then 1. else v.Consistency.dc
        | Consistency.Low ->
          if v.Consistency.dc = 0. then -1. else -.v.Consistency.dc)
      verdict
  in
  { quantity = q; measured; predicted; verdict; signed_dc }

(* Fault-mode refinement by model fitting: the faulty value of a suspect
   parameter is estimated by re-simulating the circuit over a logarithmic
   sweep of candidate values (plus two local refinement passes) and
   keeping the value that best reproduces the measurements.  This is the
   paper's "component fault models can help the diagnosis process" —
   a candidate explains the symptoms only if some value of its parameter
   reproduces them. *)
let observation_residual ?sweep netlist observations =
  match Flames_sim.Mna.solve ?sweep netlist with
  | exception (Flames_sim.Mna.No_convergence _ | Flames_sim.Linalg.Singular) ->
    None
  | sol ->
    let err =
      List.fold_left
        (fun acc (q, measured) ->
          match q with
          | Quantity.Node_voltage n -> begin
            match List.assoc_opt n sol.Flames_sim.Mna.voltages with
            | None -> acc
            | Some v ->
              let m = Interval.centroid measured in
              let scale = Float.max 0.05 (Float.abs m) in
              acc +. (((v -. m) /. scale) ** 2.)
          end
          | Quantity.Branch_current _ | Quantity.Terminal_current _
          | Quantity.Voltage_drop _ | Quantity.Parameter _ ->
            acc)
        0. observations
    in
    Some err

(* Simulation audit: within one [run] the nominal circuit is solved once
   by [simulator_predictions] (inside [Sensitivity.analyze]) and never
   per symptom — [observation_residual] folds every observation over a
   single solve.  The remaining redundancy is inside the fit sweep: the
   coarse grid and both refinement passes revisit candidate values (the
   1.0 factors re-solve the previous pass's best value, and refinement
   grids overlap), each costing a full MNA solve.  A per-sweep memo on
   the exact candidate value removes those repeats, and the shared
   [?sweep] LU context answers the distinct candidates that leave the
   matrix unchanged from the factors already computed. *)
let fit_parameter ?sweep netlist observations comp parameter =
  let nominal = Interval.centroid (Component.nominal_parameter comp parameter) in
  if nominal = 0. then None
  else
    let solved = Hashtbl.create 64 in
    let try_value v =
      let key = Int64.bits_of_float v in
      let residual =
        match Hashtbl.find_opt solved key with
        | Some r -> r
        | None ->
          let net' =
            Netlist.replace netlist
              (Component.with_parameter comp parameter (Interval.crisp v))
          in
          let r = observation_residual ?sweep net' observations in
          Hashtbl.add solved key r;
          r
      in
      Option.map (fun r -> (v, r)) residual
    in
    let best_of candidates =
      List.filter_map try_value candidates
      |> List.fold_left
           (fun best (v, r) ->
             match best with
             | Some (_, br) when br <= r -> best
             | Some _ | None -> Some (v, r))
           None
    in
    let coarse =
      List.map
        (fun m -> nominal *. m)
        [ 1e-6; 1e-3; 0.01; 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.85; 0.95; 1.;
          1.05; 1.15; 1.3; 1.5; 2.; 3.; 5.; 10.; 100.; 1e3; 1e6; 1e9 ]
    in
    match best_of coarse with
    | None -> None
    | Some (v0, _) ->
      let refine centre factors = List.map (fun f -> centre *. f) factors in
      let pass1 =
        best_of (refine v0 [ 0.5; 0.67; 0.8; 0.9; 1.; 1.1; 1.25; 1.5; 2. ])
      in
      let v1 = match pass1 with Some (v, _) -> v | None -> v0 in
      let pass2 =
        best_of (refine v1 [ 0.94; 0.96; 0.98; 1.; 1.02; 1.04; 1.06 ])
      in
      (match pass2 with Some (v, r) -> Some (v, r) | None -> pass1)

let mode_estimates ?sweep netlist observations engine comp =
  let name = comp.Component.name in
  let simulatable = netlist.Netlist.ports = [] in
  List.filter_map
    (fun parameter ->
      let nominal =
        Interval.centroid (Component.nominal_parameter comp parameter)
      in
      let fitted =
        if simulatable then
          fit_parameter ?sweep netlist observations comp parameter
        else None
      in
      match fitted with
      | Some (actual, residual) ->
        Some
          {
            parameter;
            nominal;
            estimated = Some actual;
            fit_residual = Some residual;
            modes = Fault.classify ~nominal ~actual;
          }
      | None -> begin
        (* fallback: the engine's measurement-side estimate, when local
           propagation produced one (externally driven circuits) *)
        let q = Quantity.parameter name parameter in
        match Propagate.best_value engine ~observational:true q with
        | None ->
          Some
            { parameter; nominal; estimated = None; fit_residual = None;
              modes = [] }
        | Some v ->
          let actual = Interval.centroid v.Value.interval in
          Some
            {
              parameter;
              nominal;
              estimated = Some actual;
              fit_residual = None;
              modes = Fault.classify ~nominal ~actual;
            }
      end)
    (Component.parameter_names comp.Component.kind)

(* Global nominal predictions from the DC simulator, the stand-in for the
   physical test bench's model predictions.  Each node prediction holds
   under the assumptions of the components that actually influence the
   node (finite-difference sensitivity), so a conflict on a probed node
   suspects exactly its signal path — the paper's "measuring Vs to be
   faulty suspects all the modules", while a conflict on an intermediate
   probe suspects only the upstream stage.  The prediction's fuzzy width
   is the voltage uncertainty the component tolerances induce. *)
let simulator_predictions netlist model ~floor ~threshold =
  Schedule.predictions_of_reports model
    (Schedule.raw_reports netlist)
    ~floor ~threshold

(* The quantities whose observational evidence decides constraint guards
   (e.g. a transistor's Vce): when any of them acquires evidence in the
   first pass, a deterministic second pass is required (see {!analyze}). *)
let guard_quantities model =
  List.concat_map
    (fun (c : Constr.t) -> List.map fst c.Constr.guards)
    model.Model.constraints
  |> List.sort_uniq Quantity.compare

(* One full propagation pass: fresh engine, pinned guard evidence,
   simulator predictions, then the observations, run to quiescence.
   Shared by {!run} and the incremental {!Flames_session.Session}, whose
   retraction path rebuilds exactly this engine. *)
let full_pass ?limits ~schedule ~budget ~degree ~model ~predictions
    ~observations ~guard_evidence () =
  let engine = Propagate.create ?limits ~budget ~schedule model in
  Propagate.set_guard_evidence engine guard_evidence;
  List.iter
    (fun (q, v, env) -> Propagate.predict engine ~degree q v env)
    predictions;
  List.iter (fun (q, v) -> Propagate.observe engine q v) observations;
  Propagate.run engine;
  engine

let analyze ?limits ~schedule ?budget ~degree ~model ~predictions ~prediction
    ~first netlist observations =
  let budget = match budget with Some b -> b | None -> Budget.fresh () in
  (* Guards are evaluated when a constraint fires, but the observational
     evidence for a guard quantity (e.g. a transistor's Vce reconstructed
     from two probes) may only appear later in the same run — values
     derived before the evidence arrived would survive with a stale guard
     degree.  A second pass with the first pass's guard evidence injected
     up-front makes guard evaluation deterministic. *)
  let guard_evidence =
    List.filter_map
      (fun q ->
        match Propagate.best_value first ~observational:true q with
        | Some v -> Some (q, v.Value.interval)
        | None -> None)
      (guard_quantities model)
  in
  let engine =
    if guard_evidence = [] then first
    else
      full_pass ?limits ~schedule ~budget ~degree ~model ~predictions
        ~observations ~guard_evidence ()
  in
  let symptoms = List.map (symptom_of prediction) observations in
  let conflicts = Propagate.conflicts engine in
  let name_of id = Model.assumption_name model id in
  let suspects =
    Trace.with_span ~record:fit_seconds "diagnose.fit" @@ fun () ->
    (* one exact LU context across every suspect's fit sweep: a
       candidate system whose matrix equals the first one solved in its
       device-region state (a source or junction-drop parameter moved
       only the right-hand side) re-solves against those factors, bit
       for bit *)
    let fsweep = Flames_sim.Mna.sweep () in
    Candidates.suspicions conflicts
    |> List.filter_map (fun (id, suspicion) ->
           let component = name_of id in
           if Netlist.mem netlist component then
             let comp = Netlist.find netlist component in
             let estimates =
               (* fit sweeps are the most expensive stage (one MNA solve
                  per candidate value): once the budget has tripped, skip
                  further sweeps and degrade to bare suspicions *)
               if Budget.tripped budget || not (Budget.ok budget) then []
               else mode_estimates ~sweep:fsweep netlist observations engine comp
             in
             let explains =
               List.exists
                 (fun e ->
                   match e.fit_residual with
                   | Some r -> r <= fit_threshold
                   | None -> false)
                 estimates
             in
             Some { component; suspicion; explains; estimates }
           else
             Some { component; suspicion; explains = false; estimates = [] })
  in
  let diagnoses, single_faults =
    Trace.with_span ~record:rank_seconds "diagnose.rank" @@ fun () ->
    let ranked =
      Candidates.diagnoses
        ?limit:(Budget.quota_candidates budget)
        ~interrupt:(Budget.interrupt_of budget) conflicts
    in
    (* account every enumerated candidate, so a candidate quota both
       trips (for later stages) and shows up in the result's trip list *)
    ignore (Budget.charge_candidates budget (List.length ranked));
    let diagnoses =
      List.map
        (fun (d : Candidates.diagnosis) ->
          ( List.map name_of (Env.to_list d.Candidates.members),
            d.Candidates.rank ))
        ranked
    in
    let single_faults =
      Candidates.single_faults conflicts
      |> List.map (fun (id, degree) -> (name_of id, degree))
    in
    (diagnoses, single_faults)
  in
  let degraded =
    Budget.tripped budget
    || Propagate.truncated prediction
    || Propagate.truncated engine
  in
  Metrics.incr runs_total;
  if degraded then Metrics.incr degraded_total;
  let trips = Budget.trips budget in
  (* outcome annotations for the request's wide event (no-ops without
     an active context): the per-stage timings arrive separately via
     the recorded spans above *)
  Context.annotate "degraded" (Context.Bool degraded);
  Context.annotate "conflicts" (Context.Int (List.length conflicts));
  Context.annotate "nogoods"
    (Context.Int (Flames_atms.Nogood.count (Propagate.nogood_db engine)));
  Context.annotate "propagate_steps" (Context.Int (Propagate.steps_used engine));
  Context.annotate "budget_elapsed_s" (Context.Num (Budget.elapsed budget));
  if trips <> [] then
    Context.annotate "budget_trips"
      (Context.Str (String.concat "," (List.map Budget.trip_label trips)));
  { netlist; symptoms; conflicts; suspects; diagnoses; single_faults; engine;
    degraded; trips }

(* Nominal-prediction engines cached per schedule.  The prediction pass
   is a pure function of (schedule, limits, degree, floor, threshold,
   simulate flag): it sees no observations, so every request against the
   same compiled model rebuilds the identical engine.  Reuse is gated by
   [Budget.meters_propagation]: the pass charges steps and envs, so
   under a step or env quota (or a cancellation) it runs fresh and trips
   where the uncached path would; under a wall-only or candidate-only
   budget skipping it changes nothing but time.  A pass cut short by its
   budget is never inserted, so later requests only ever see complete
   engines.  A cached engine is quiescent and only ever read
   afterwards ([best_value] / [truncated], both mutation-free), so
   sharing it across threads and domains is safe; the ephemeron key
   lets a schedule evicted from [Engine.Cache] take its engines with
   it. *)
module PTbl = Ephemeron.K1.Make (struct
  type t = Schedule.t

  let equal = ( == )
  let hash (s : Schedule.t) = s.Schedule.uid
end)

type pkey = {
  plimits : Propagate.limits;
  pdegree : float;
  pfloor : float;
  pthreshold : float;
  psim : bool;
}

let pcache : (pkey * Propagate.t) list PTbl.t = PTbl.create 8
let pcache_lock = Mutex.create ()

let prediction_engine ?limits ~budget ~schedule ~model ~degree ~floor
    ~threshold ~simulate predictions =
  let fresh () =
    let prediction = Propagate.create ?limits ~budget ~schedule model in
    List.iter
      (fun (q, v, env) -> Propagate.predict prediction ~degree q v env)
      predictions;
    Propagate.run prediction;
    prediction
  in
  if Budget.meters_propagation budget then fresh ()
  else begin
    let key =
      {
        plimits = Option.value limits ~default:Propagate.default_limits;
        pdegree = degree;
        pfloor = floor;
        pthreshold = threshold;
        psim = simulate;
      }
    in
    Mutex.lock pcache_lock;
    let hit =
      match PTbl.find_opt pcache schedule with
      | Some entries -> List.assoc_opt key entries
      | None -> None
    in
    Mutex.unlock pcache_lock;
    match hit with
    | Some engine -> engine
    | None ->
      let engine = fresh () in
      if not (Budget.tripped budget) then begin
        Mutex.lock pcache_lock;
        let entries =
          Option.value (PTbl.find_opt pcache schedule) ~default:[]
        in
        if not (List.mem_assoc key entries) then
          (* a handful of (limits, degree, floor, threshold) tunings per
             schedule in practice; keep the newest four *)
          PTbl.replace pcache schedule
            ((key, engine) :: List.filteri (fun i _ -> i < 3) entries);
        Mutex.unlock pcache_lock
      end;
      engine
  end

let run ?config ?limits ?model ?schedule ?budget
    ?(prediction_floor = 1e-3) ?(sensitivity_threshold = 0.02)
    ?(prediction_degree = 0.95) ?(simulate_predictions = true) netlist
    observations =
  Trace.with_span
    ~args:[ ("circuit", netlist.Netlist.name) ]
    "diagnose.run"
  @@ fun () ->
  let budget = match budget with Some b -> b | None -> Budget.fresh () in
  let model, schedule =
    match schedule with
    | Some s -> (Schedule.model s, s)
    | None ->
      let m =
        match model with
        | Some m -> m
        | None ->
          Trace.with_span ~record:model_seconds "diagnose.model" (fun () ->
              Model.compile ?config netlist)
      in
      (m, Schedule.of_model m)
  in
  let predictions =
    if simulate_predictions then
      Trace.with_span ~record:simulate_seconds "diagnose.simulate" (fun () ->
          (* memoized on the schedule: the sensitivity sweep runs once
             per compiled model, not once per request *)
          Schedule.predictions schedule ~floor:prediction_floor
            ~threshold:sensitivity_threshold)
    else []
  in
  let degree = prediction_degree in
  (* prediction pass: nominals only — shared across requests unless
     the budget meters propagation (see [prediction_engine]) *)
  let prediction =
    prediction_engine ?limits ~budget ~schedule ~model ~degree
      ~floor:prediction_floor ~threshold:sensitivity_threshold
      ~simulate:simulate_predictions predictions
  in
  (* full pass with observations, then the shared post-propagation
     pipeline (guard second pass, symptoms, conflicts, fits, ranking) *)
  let first =
    full_pass ?limits ~schedule ~budget ~degree ~model ~predictions
      ~observations ~guard_evidence:[] ()
  in
  analyze ?limits ~schedule ~budget ~degree ~model ~predictions ~prediction
    ~first netlist observations

let run_r ?config ?limits ?model ?schedule ?budget
    ?prediction_floor ?sensitivity_threshold ?prediction_degree
    ?simulate_predictions netlist observations =
  Err.guard (fun () ->
      run ?config ?limits ?model ?schedule ?budget
        ?prediction_floor ?sensitivity_threshold ?prediction_degree
        ?simulate_predictions netlist observations)

let healthy result = result.conflicts = []

let suspects_above result threshold =
  result.suspects
  |> List.filter (fun s -> s.suspicion >= threshold)
  |> List.map (fun s -> s.component)
