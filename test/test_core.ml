(* Tests for the core engine: values, constraints, model compilation,
   fuzzy-interval propagation with conflict recognition, and the
   diagnosis driver. *)

module I = Flames_fuzzy.Interval
module Env = Flames_atms.Env
module Q = Flames_circuit.Quantity
module C = Flames_circuit.Component
module N = Flames_circuit.Netlist
module F = Flames_circuit.Fault
module L = Flames_circuit.Library
module Value = Flames_core.Value
module Constr = Flames_core.Constr
module Model = Flames_core.Model
module Propagate = Flames_core.Propagate
module Diagnose = Flames_core.Diagnose
module Report = Flames_core.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* {1 Value} *)

let test_value_constructors () =
  let m = Value.measured (I.crisp 1.) in
  check_bool "measured observational" true m.Value.observational;
  check_bool "measured env empty" true (Env.is_empty m.Value.env);
  let g = Value.given (I.crisp 1.) (Env.singleton 0) in
  check_bool "given model-side" false g.Value.observational;
  let d =
    Value.derived "c" (I.crisp 1.) Env.empty 0.8 ~observational:true
      ~history:Value.History.empty
  in
  check_bool "derivation recorded in history" true
    (Value.History.mem "c" d.Value.history)

let test_value_strength () =
  let m = Value.measured (I.number 1. ~spread:10.) in
  let g = Value.given (I.crisp 1.) Env.empty in
  check_bool "measured beats given" true (Value.strength m g < 0);
  let small_env = Value.given (I.crisp 1.) (Env.singleton 0) in
  let big_env = Value.given (I.crisp 1.) (Env.of_list [ 0; 1 ]) in
  check_bool "smaller env preferred" true (Value.strength small_env big_env < 0)

let test_value_subsumes () =
  let tight = Value.given (I.number 1. ~spread:0.1) (Env.singleton 0) in
  let loose = Value.given (I.number 1. ~spread:1.) (Env.of_list [ 0; 1 ]) in
  check_bool "tight subset subsumes" true (Value.subsumes tight loose);
  check_bool "loose does not subsume" false (Value.subsumes loose tight);
  let other_side = Value.measured (I.number 1. ~spread:0.1) in
  check_bool "different sides never subsume" false
    (Value.subsumes other_side loose)

(* {1 Constr} *)

let lookup_of assoc q =
  List.find_map
    (fun (q', v) -> if Q.equal q q' then Some v else None)
    assoc

let test_constr_linear_solves_each_var () =
  (* x − y − z = 0, i.e. x = y + z *)
  let x = Q.voltage "x" and y = Q.voltage "y" and z = Q.voltage "z" in
  let c =
    Constr.make "kvl" (Constr.Linear ([ (1., x); (-1., y); (-1., z) ], 0.))
  in
  let env = [ (y, I.crisp 2.); (z, I.crisp 3.) ] in
  (match Constr.solve_for c x (lookup_of env) with
  | Some v -> check_float "x = 5" 5. (I.centroid v)
  | None -> Alcotest.fail "x underivable");
  let env = [ (x, I.crisp 5.); (z, I.crisp 3.) ] in
  (match Constr.solve_for c y (lookup_of env) with
  | Some v -> check_float "y = 2" 2. (I.centroid v)
  | None -> Alcotest.fail "y underivable");
  check_bool "missing input" true
    (Constr.solve_for c x (lookup_of [ (y, I.crisp 2.) ]) = None);
  check_bool "foreign target" true
    (Constr.solve_for c (Q.voltage "w") (lookup_of env) = None)

let test_constr_linear_coefficients () =
  (* 2x + 3y = 12 *)
  let x = Q.voltage "x" and y = Q.voltage "y" in
  let c = Constr.make "lin" (Constr.Linear ([ (2., x); (3., y) ], 12.)) in
  match Constr.solve_for c x (lookup_of [ (y, I.crisp 2.) ]) with
  | Some v -> check_float "x = 3" 3. (I.centroid v)
  | None -> Alcotest.fail "underivable"

let test_constr_product_all_directions () =
  (* u = i ⊗ r *)
  let u = Q.drop "r" and i = Q.current "r" and r = Q.parameter "r" "R" in
  let c = Constr.make "ohm" (Constr.Product (u, i, r)) in
  (match Constr.solve_for c u (lookup_of [ (i, I.crisp 2.); (r, I.crisp 3.) ]) with
  | Some v -> check_float "u = 6" 6. (I.centroid v)
  | None -> Alcotest.fail "u underivable");
  (match Constr.solve_for c i (lookup_of [ (u, I.crisp 6.); (r, I.crisp 3.) ]) with
  | Some v -> check_float "i = 2" 2. (I.centroid v)
  | None -> Alcotest.fail "i underivable");
  match Constr.solve_for c r (lookup_of [ (u, I.crisp 6.); (i, I.crisp 2.) ]) with
  | Some v -> check_float "r = 3" 3. (I.centroid v)
  | None -> Alcotest.fail "r underivable"

let test_constr_product_division_by_zero () =
  let u = Q.drop "r" and i = Q.current "r" and r = Q.parameter "r" "R" in
  let c = Constr.make "ohm" (Constr.Product (u, i, r)) in
  let zero_spanning = I.make ~m1:(-1.) ~m2:1. ~alpha:0. ~beta:0. in
  check_bool "division through zero yields None" true
    (Constr.solve_for c i (lookup_of [ (u, I.crisp 6.); (r, zero_spanning) ])
    = None)

let test_constr_generative () =
  let q = Q.current "d" in
  let bound = I.make ~m1:0. ~m2:1. ~alpha:0. ~beta:0.1 in
  let c = Constr.make "bound" (Constr.Bound (q, bound)) in
  check_bool "generative" true (Constr.is_generative c);
  check_bool "no sources" true (Constr.sources c = []);
  match Constr.solve_for c q (lookup_of []) with
  | Some v -> check_bool "bound returned" true (I.equal v bound)
  | None -> Alcotest.fail "bound underivable"

let test_constr_validation () =
  let x = Q.voltage "x" in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Constr.make "bad" (Constr.Linear ([ (1., x) ], 0.)));
  expect_invalid (fun () ->
      Constr.make "bad" (Constr.Linear ([ (0., x); (1., Q.voltage "y") ], 0.)));
  expect_invalid (fun () ->
      Constr.make "bad" (Constr.Linear ([ (1., x); (2., x) ], 0.)));
  expect_invalid (fun () -> Constr.make "bad" (Constr.Product (x, x, Q.voltage "y")))

(* {1 Model} *)

let test_model_divider () =
  let model = Model.compile (L.voltage_divider ()) in
  check_int "three component assumptions" 3
    (List.length (Model.component_assumptions model));
  (* resistor quantities present *)
  check_bool "drop quantity" true
    (List.exists (Q.equal (Q.drop "r1")) model.Model.quantities);
  check_bool "parameter quantity" true
    (List.exists (Q.equal (Q.parameter "r1" "R")) model.Model.quantities);
  check_bool "kcl generated" true
    (List.exists
       (fun (c : Constr.t) -> c.Constr.name = "kcl(mid)")
       model.Model.constraints)

let test_model_trusted () =
  let config = { Model.default_config with trusted = [ "vin" ] } in
  let model = Model.compile ~config (L.voltage_divider ()) in
  check_int "vin has no assumption" 2
    (List.length (Model.component_assumptions model));
  match Model.assumption_id model "vin" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "trusted component must have no assumption"

let test_model_no_kcl () =
  let config = { Model.default_config with kcl = false } in
  let model = Model.compile ~config (L.voltage_divider ()) in
  check_bool "no kcl constraints" true
    (not
       (List.exists
          (fun (c : Constr.t) ->
            String.length c.Constr.name >= 3
            && String.sub c.Constr.name 0 3 = "kcl")
          model.Model.constraints))

let test_model_node_assumptions () =
  let config = { Model.default_config with node_assumptions = true } in
  let model = Model.compile ~config (L.voltage_divider ()) in
  (* nodes in and mid get assumptions on top of the 3 components *)
  check_int "assumption count" 5 (Array.length model.Model.assumption_names)

let test_model_port_skips_kcl () =
  let model = Model.compile (L.diode_resistor ()) in
  check_bool "no kcl at port" true
    (not
       (List.exists
          (fun (c : Constr.t) -> c.Constr.name = "kcl(in)")
          model.Model.constraints))

let test_model_bjt_constraints () =
  let model = Model.compile (L.three_stage_amplifier ()) in
  List.iter
    (fun name ->
      check_bool name true
        (List.exists
           (fun (c : Constr.t) -> c.Constr.name = name)
           model.Model.constraints))
    [ "vbe(t1)"; "beta(t1)"; "ie(t1)"; "ie-gain(t1)"; "nominal(t1.beta+1)" ]

(* {1 Propagate} *)

let test_propagate_divider_forward () =
  (* observing the input lets the engine derive the series current from
     each resistor's drop — no simultaneous solving needed once mid is
     also measured *)
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create model in
  Propagate.observe e (Q.voltage "in") (I.crisp 10.);
  Propagate.observe e (Q.voltage "mid") (I.crisp 5.);
  Propagate.run e;
  (match Propagate.best_value e ~observational:true (Q.current "r1") with
  | Some v -> check_close "I(r1) = 0.5 mA" 1e-5 5e-4 (I.centroid v.Value.interval)
  | None -> Alcotest.fail "current underivable");
  check_bool "healthy: no conflict" true (Propagate.conflicts e = [])

let test_propagate_detects_conflict () =
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create model in
  (* equal resistors but mid far from in/2: someone is lying *)
  Propagate.observe e (Q.voltage "in") (I.crisp 10.);
  Propagate.observe e (Q.voltage "mid") (I.crisp 9.);
  Propagate.run e;
  check_bool "conflict recorded" true (Propagate.conflicts e <> [])

let test_propagate_incremental () =
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create model in
  Propagate.observe e (Q.voltage "in") (I.crisp 10.);
  Propagate.run e;
  let before = List.length (Propagate.conflicts e) in
  Propagate.observe e (Q.voltage "mid") (I.crisp 9.);
  Propagate.run e;
  check_bool "incremental observation creates conflicts" true
    (List.length (Propagate.conflicts e) > before)

let test_propagate_parameter_estimate () =
  (* measured drop and derived current give an observational estimate of
     the resistance, used by fault-mode refinement *)
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create model in
  Propagate.observe e (Q.voltage "in") (I.crisp 10.);
  Propagate.observe e (Q.voltage "mid") (I.crisp 5.);
  Propagate.run e;
  match Propagate.best_value e ~observational:true (Q.parameter "r1" "R") with
  | Some v -> check_close "R estimate" 200. 10e3 (I.centroid v.Value.interval)
  | None -> Alcotest.fail "no parameter estimate"

let test_propagate_cell_cap () =
  let limits = { Propagate.default_limits with max_values_per_cell = 2 } in
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create ~limits model in
  Propagate.observe e (Q.voltage "in") (I.crisp 10.);
  Propagate.observe e (Q.voltage "mid") (I.crisp 5.);
  Propagate.run e;
  List.iter
    (fun q ->
      check_bool "cap respected" true (List.length (Propagate.values e q) <= 2))
    model.Model.quantities

let test_propagate_conflict_floor () =
  (* a barely-deviant measurement is absorbed by the conflict floor *)
  let limits = { Propagate.default_limits with min_conflict_degree = 0.9 } in
  let model = Model.compile (L.voltage_divider ()) in
  let e = Propagate.create ~limits model in
  Propagate.observe e (Q.voltage "in") (I.number 10. ~spread:0.1);
  Propagate.observe e (Q.voltage "mid") (I.number 5.2 ~spread:0.1);
  Propagate.run e;
  check_bool "weak conflicts filtered" true
    (List.for_all
       (fun (c : Flames_atms.Candidates.conflict) ->
         c.Flames_atms.Candidates.degree >= 0.9)
       (Propagate.conflicts e))

let test_propagate_guard_suspends_model () =
  (* with the base measured at ground, the transistor's linear model must
     not fire (the paper's qualitative conduction rule) *)
  let model =
    Model.compile
      ~config:{ Model.default_config with trusted = [ "vcc" ] }
      (L.three_stage_amplifier ())
  in
  let e = Propagate.create model in
  Propagate.observe e (Q.voltage "n1") (I.crisp 0.);
  Propagate.run e;
  check_bool "no e1 value through suspended vbe(t1)" true
    (Propagate.best_value e ~observational:true (Q.voltage "e1") = None)

(* {1 Diagnose} *)

let config = { Model.default_config with trusted = [ "vcc" ] }
let instrument = { Flames_sim.Measure.relative = 0.002; floor = 5e-4 }

let diagnose_amp fault probes =
  let nominal = L.three_stage_amplifier ~tolerance:0.005 () in
  let faulty = match fault with None -> nominal | Some f -> f nominal in
  let sol = Flames_sim.Mna.solve faulty in
  let obs =
    Flames_sim.Measure.probe_all ~instrument sol (List.map Q.voltage probes)
  in
  Diagnose.run ~config nominal obs

let test_diagnose_healthy () =
  let r = diagnose_amp None [ "vs"; "n2"; "v1" ] in
  check_bool "healthy" true (Diagnose.healthy r);
  check_bool "no suspects" true (r.Diagnose.suspects = []);
  check_bool "summary says healthy" true
    (String.length (Report.summary r) >= 7
    && String.sub (Report.summary r) 0 7 = "healthy")

(* the registry is find-or-create: this is [Propagate]'s own counter *)
let propagate_steps () =
  Flames_obs.Metrics.counter_value
    (Flames_obs.Metrics.counter "flames_propagate_steps_total")

(* The nominal prediction pass sees no observation, so it runs once per
   schedule under wall-only budgets: the second wall-budget run
   propagates fewer steps than the first, which paid for it.  A step
   quota (here one that never trips) meters propagation, so that run
   pays the pass again. *)
let test_diagnose_wall_budget_reuses_prediction () =
  let module Budget = Flames_core.Budget in
  let nominal = L.three_stage_amplifier ~tolerance:0.005 () in
  let faulty = F.inject nominal (F.short "r2" ~parameter:"R") in
  let sol = Flames_sim.Mna.solve faulty in
  let obs =
    Flames_sim.Measure.probe_all ~instrument sol
      (List.map Q.voltage [ "vs"; "n2"; "v1" ])
  in
  let schedule = Flames_core.Schedule.compile ~config nominal in
  let run spec =
    let before = propagate_steps () in
    let r =
      Diagnose.run ~config ~schedule ~budget:(Budget.start spec) nominal obs
    in
    (r, propagate_steps () - before)
  in
  let wall = Budget.spec ~wall:3600. () in
  let first, cold = run wall in
  let second, warm = run wall in
  let metered, fresh = run (Budget.spec ~max_steps:max_int ()) in
  check_bool "first run pays the pass" true (cold > warm);
  check_int "quota run pays it again" cold fresh;
  List.iter
    (fun (r : Diagnose.result) ->
      check_bool "clean" false r.Diagnose.degraded;
      check_bool "same diagnoses" true
        (r.Diagnose.diagnoses = first.Diagnose.diagnoses);
      check_bool "same symptoms" true
        (r.Diagnose.symptoms = first.Diagnose.symptoms))
    [ second; metered ]

let test_diagnose_hard_fault_detected () =
  let r =
    diagnose_amp
      (Some (fun n -> F.inject n (F.short "r2" ~parameter:"R")))
      [ "vs"; "n2"; "v1" ]
  in
  check_bool "not healthy" true (not (Diagnose.healthy r));
  (* stage-1 components are the prime suspects *)
  let top = Diagnose.suspects_above r 0.9 in
  List.iter
    (fun c -> check_bool (c ^ " suspected") true (List.mem c top))
    [ "r1"; "r2"; "r3"; "t1" ];
  (* single-fault explanations (fit-based) stay within stage 1: no
     downstream component value reproduces the symptoms *)
  let explainers =
    List.filter_map
      (fun (s : Diagnose.suspect) ->
        if s.Diagnose.explains then Some s.Diagnose.component else None)
      r.Diagnose.suspects
  in
  check_bool "r2 explains the symptoms" true (List.mem "r2" explainers);
  List.iter
    (fun c ->
      check_bool (c ^ " is a stage-1 explainer") true
        (List.mem c [ "r1"; "r2"; "r3"; "r4"; "t1" ]))
    explainers

let test_diagnose_fault_mode_refinement () =
  let r =
    diagnose_amp
      (Some (fun n -> F.inject n (F.short "r2" ~parameter:"R")))
      [ "vs"; "n2"; "v1" ]
  in
  let r2 =
    List.find
      (fun (s : Diagnose.suspect) -> s.Diagnose.component = "r2")
      r.Diagnose.suspects
  in
  let has_short =
    List.exists
      (fun (e : Diagnose.mode_estimate) ->
        match e.Diagnose.modes with
        | (F.Short, d) :: _ -> d > 0.9
        | _ -> false)
      r2.Diagnose.estimates
  in
  check_bool "r2 classified short" true has_short

let test_diagnose_soft_fault_graded () =
  let r =
    diagnose_amp
      (Some (fun n -> F.inject n (F.shifted "r2" ~parameter:"R" 12.18e3)))
      [ "vs"; "n2"; "v1" ]
  in
  check_bool "soft fault detected" true (not (Diagnose.healthy r));
  (* graded, not hard: all conflicts strictly below 1 *)
  check_bool "conflicts graded" true
    (List.for_all
       (fun (c : Flames_atms.Candidates.conflict) ->
         c.Flames_atms.Candidates.degree < 1.)
       r.Diagnose.conflicts);
  (* the Dc columns: measured below prediction on all probes *)
  List.iter
    (fun (s : Diagnose.symptom) ->
      match s.Diagnose.verdict with
      | Some v ->
        check_bool "partial consistency" true
          (v.Flames_fuzzy.Consistency.dc > 0.5
          && v.Flames_fuzzy.Consistency.dc < 1.);
        check_bool "low side" true
          (v.Flames_fuzzy.Consistency.direction = Flames_fuzzy.Consistency.Low)
      | None -> Alcotest.fail "symptom without verdict")
    r.Diagnose.symptoms

let test_diagnose_symptoms_have_predictions () =
  let r = diagnose_amp None [ "vs" ] in
  match r.Diagnose.symptoms with
  | [ s ] ->
    check_bool "prediction present" true (s.Diagnose.predicted <> None);
    check_bool "dc = 1 on healthy" true
      (match s.Diagnose.verdict with
      | Some v -> v.Flames_fuzzy.Consistency.dc > 0.99
      | None -> false)
  | _ -> Alcotest.fail "expected one symptom"

let test_diagnose_trusted_never_suspect () =
  let r =
    diagnose_amp
      (Some (fun n -> F.inject n (F.short "r2" ~parameter:"R")))
      [ "vs"; "n2"; "v1" ]
  in
  check_bool "vcc never suspected" true
    (not
       (List.exists
          (fun (s : Diagnose.suspect) -> s.Diagnose.component = "vcc")
          r.Diagnose.suspects))

let test_diagnose_fig5 () =
  (* the full paper example through the public driver *)
  let r =
    Diagnose.run (L.diode_resistor ())
      [
        (Q.drop "d1", I.crisp 0.2);
        (Q.drop "r1", I.crisp 1.05);
        (Q.drop "r2", I.crisp 2.0);
      ]
  in
  let degree_of members =
    List.fold_left
      (fun acc (c : Flames_atms.Candidates.conflict) ->
        let names =
          List.map
            (Propagate.names r.Diagnose.engine)
            (Env.to_list c.Flames_atms.Candidates.env)
        in
        if List.sort String.compare names = List.sort String.compare members
        then Float.max acc c.Flames_atms.Candidates.degree
        else acc)
      0. r.Diagnose.conflicts
  in
  check_close "paper nogood {r1,d1} at 0.5" 0.05 0.5 (degree_of [ "r1"; "d1" ]);
  check_float "paper nogood {r2,d1} at 1" 1. (degree_of [ "r2"; "d1" ])

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  ln = 0 || go 0

let test_report_renders () =
  let r =
    diagnose_amp
      (Some (fun n -> F.inject n (F.short "r2" ~parameter:"R")))
      [ "vs"; "n2"; "v1" ]
  in
  let text = Format.asprintf "%a" Report.pp_result r in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [ "symptoms"; "conflicts"; "suspects"; "minimal diagnoses" ]

let () =
  Alcotest.run "core"
    [
      ( "value",
        [
          Alcotest.test_case "constructors" `Quick test_value_constructors;
          Alcotest.test_case "strength" `Quick test_value_strength;
          Alcotest.test_case "subsumes" `Quick test_value_subsumes;
        ] );
      ( "constr",
        [
          Alcotest.test_case "linear directions" `Quick
            test_constr_linear_solves_each_var;
          Alcotest.test_case "linear coefficients" `Quick
            test_constr_linear_coefficients;
          Alcotest.test_case "product directions" `Quick
            test_constr_product_all_directions;
          Alcotest.test_case "division by zero" `Quick
            test_constr_product_division_by_zero;
          Alcotest.test_case "generative" `Quick test_constr_generative;
          Alcotest.test_case "validation" `Quick test_constr_validation;
        ] );
      ( "model",
        [
          Alcotest.test_case "divider" `Quick test_model_divider;
          Alcotest.test_case "trusted" `Quick test_model_trusted;
          Alcotest.test_case "no kcl" `Quick test_model_no_kcl;
          Alcotest.test_case "node assumptions" `Quick
            test_model_node_assumptions;
          Alcotest.test_case "port skips kcl" `Quick test_model_port_skips_kcl;
          Alcotest.test_case "bjt constraints" `Quick
            test_model_bjt_constraints;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "divider forward" `Quick
            test_propagate_divider_forward;
          Alcotest.test_case "detects conflict" `Quick
            test_propagate_detects_conflict;
          Alcotest.test_case "incremental" `Quick test_propagate_incremental;
          Alcotest.test_case "parameter estimate" `Quick
            test_propagate_parameter_estimate;
          Alcotest.test_case "cell cap" `Quick test_propagate_cell_cap;
          Alcotest.test_case "conflict floor" `Quick
            test_propagate_conflict_floor;
          Alcotest.test_case "guard suspends model" `Quick
            test_propagate_guard_suspends_model;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "healthy" `Quick test_diagnose_healthy;
          Alcotest.test_case "hard fault" `Quick
            test_diagnose_hard_fault_detected;
          Alcotest.test_case "fault-mode refinement" `Quick
            test_diagnose_fault_mode_refinement;
          Alcotest.test_case "soft fault graded" `Quick
            test_diagnose_soft_fault_graded;
          Alcotest.test_case "symptom predictions" `Quick
            test_diagnose_symptoms_have_predictions;
          Alcotest.test_case "trusted never suspect" `Quick
            test_diagnose_trusted_never_suspect;
          Alcotest.test_case "fig5 degrees" `Quick test_diagnose_fig5;
          Alcotest.test_case "report renders" `Quick test_report_renders;
          Alcotest.test_case "wall budget reuses prediction" `Quick
            test_diagnose_wall_budget_reuses_prediction;
        ] );
    ]
