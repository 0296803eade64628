(* Tests for the verification subsystem itself (lib/check): the
   differential oracles against the production paths, the ATMS and
   diagnosis invariant auditors, and the determinism/shrinking contract
   of the generator layer. *)

module Gen = Flames_check.Gen
module Oracle = Flames_check.Oracle
module Invariant = Flames_check.Invariant
module Rng = Flames_check.Rng
module Env = Flames_atms.Env
module Atms = Flames_atms.Atms
module I = Flames_fuzzy.Interval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let e = Env.of_list

let expect_pass name count g prop =
  match Gen.run ~seed:0xC0FFEE ~count g prop with
  | Gen.Pass n -> check_int name count n
  | Gen.Fail f ->
    Alcotest.failf "%s: %a" name (Gen.pp_failure g) f

(* {1 Hitting-set oracle (satellite: >= 500 random cases)} *)

let test_hitting_oracle_random () =
  expect_pass "hitting oracle" 500 Gen.conflict_sets Oracle.check_hitting

let test_hitting_directed_edges () =
  let ok name conflicts =
    match Oracle.check_hitting conflicts with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" name m
  in
  ok "no conflicts" [];
  ok "empty conflict alone" [ Env.empty ];
  ok "empty conflict among others" [ e [ 1; 2 ]; Env.empty; e [ 3 ] ];
  ok "exact duplicates" [ e [ 1; 2 ]; e [ 1; 2 ]; e [ 1; 2 ] ];
  ok "subset pair" [ e [ 1 ]; e [ 1; 2; 3 ] ];
  ok "disjoint conflicts" [ e [ 1; 2 ]; e [ 3; 4 ]; e [ 5; 6 ] ];
  ok "twelve assumptions, overlapping"
    [
      e [ 0; 1; 2; 3 ]; e [ 3; 4; 5; 6 ]; e [ 6; 7; 8; 9 ];
      e [ 9; 10; 11 ]; e [ 0; 11 ]; e [ 2; 5; 8 ];
    ];
  (* brute-force ground truth on a case small enough to read off *)
  Alcotest.(check int)
    "brute count" 2
    (List.length (Oracle.brute_hitting [ e [ 1; 2 ]; e [ 2; 3 ] ]));
  check_bool "brute contains {2}" true
    (List.exists (Env.equal (e [ 2 ])) (Oracle.brute_hitting [ e [ 1; 2 ]; e [ 2; 3 ] ]))

(* {1 Env bitset / Envindex oracles (satellite: >= 500 random cases)} *)

let test_env_oracle_random () =
  expect_pass "env bitset oracle" 500 Gen.id_lists Oracle.check_env

let test_envindex_oracle_random () =
  expect_pass "envindex oracle" 500 Gen.weighted_envs Oracle.check_envindex

let test_env_oracle_directed () =
  let ok name lists =
    match Oracle.check_env lists with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" name m
  in
  ok "empty" [ [] ];
  ok "word boundaries" [ [ 62 ]; [ 63 ]; [ 64 ]; [ 127 ]; [ 62; 63; 64; 127 ] ];
  ok "spanning words" [ [ 0; 63; 126 ]; [ 1; 64; 127 ]; [ 0; 1; 62; 65 ] ];
  ok "duplicates" [ [ 5; 5; 5 ]; [ 5 ] ];
  match
    Oracle.check_envindex
      [ ([ 1; 2 ], 0.5); ([ 1 ], 1.); ([ 1; 2; 3 ], 0.25); ([ 2 ], 0.5) ]
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "directed envindex: %s" m

(* {1 Arithmetic / consistency / MNA oracles} *)

let interval_pairs =
  {
    Gen.gen =
      (fun rng ->
        let a = Gen.interval.Gen.gen rng in
        let b = Gen.interval.Gen.gen rng in
        (a, b));
    shrink =
      (fun (a, b) ->
        List.map (fun a' -> (a', b)) (Gen.interval.Gen.shrink a)
        @ List.map (fun b' -> (a, b')) (Gen.interval.Gen.shrink b));
    print =
      (fun (a, b) ->
        Gen.interval.Gen.print a ^ "  |  " ^ Gen.interval.Gen.print b);
  }

let test_arith_oracle () =
  expect_pass "alpha-cut arith oracle" 300 interval_pairs Oracle.check_arith

let test_consistency_oracle () =
  expect_pass "grid Dc oracle" 300 interval_pairs Oracle.check_consistency

let test_mna_oracle () =
  expect_pass "dense MNA oracle" 200 Gen.ladder (fun l ->
      Oracle.check_mna (Gen.netlist_of_ladder l))

(* {1 ATMS label audit} *)

let test_atms_audit_random () =
  expect_pass "ATMS label laws" 200 Gen.atms_spec (fun spec ->
      Invariant.audit_atms (Gen.build_atms spec))

let test_atms_audit_debug_hook () =
  (* with the debug hook armed, every install self-checks *)
  let t = Atms.create () in
  Atms.set_debug t true;
  check_bool "debug armed" true (Atms.debug t);
  let a = Atms.assumption t "a" and b = Atms.assumption t "b" in
  let n = Atms.node t "n" in
  Atms.justify t ~degree:0.9 ~antecedents:[ a ] n;
  Atms.justify t ~degree:0.4 ~antecedents:[ b ] n;
  Atms.justify t ~degree:1.0 ~antecedents:[ n ] (Atms.contradiction t);
  check_int "no violations" 0 (List.length (Atms.audit t))

(* {1 Diagnosis invariants on random circuits} *)

let test_diagnosis_invariants () =
  expect_pass "diagnosis invariants" 25 Gen.scenario (fun sc ->
      let nominal, _ = Gen.scenario_netlists sc in
      Invariant.audit_result
        (Flames_core.Diagnose.run nominal (Gen.scenario_observations sc)))

(* {1 Batch determinism (satellite: 1/2/4 workers, cold and warm)} *)

let test_batch_determinism () =
  expect_pass "batch == sequential" 2
    {
      Gen.gen =
        (fun rng -> List.init 3 (fun _ -> Gen.scenario.Gen.gen rng));
      shrink = (fun _ -> []);
      print =
        (fun scs -> String.concat "\n--\n" (List.map Gen.scenario.Gen.print scs));
    }
    (fun scs ->
      let jobs =
        List.mapi
          (fun i sc ->
            let nominal, _ = Gen.scenario_netlists sc in
            Flames_engine.Batch.job
              ~label:(Printf.sprintf "job%d" i)
              nominal
              (Gen.scenario_observations sc))
          scs
      in
      Oracle.check_batch ~workers:[ 1; 2; 4 ] jobs)

(* {1 Generator layer: determinism, replay, shrinking} *)

let test_gen_determinism () =
  let draw seed =
    let rng = Rng.make (Rng.case_seed ~seed ~case:7) in
    Gen.scenario.Gen.print (Gen.scenario.Gen.gen rng)
  in
  check_string "same seed, same scenario" (draw 42) (draw 42);
  check_bool "different seed, different scenario" true (draw 42 <> draw 43)

let test_gen_shrinking () =
  (* a property that rejects any conflict set with >= 2 conflicts must
     shrink to exactly 2, and the failure must replay bit-identically *)
  let prop cs =
    if List.length cs >= 2 then Error "too many conflicts" else Ok ()
  in
  let run () =
    match Gen.run ~seed:11 ~count:200 Gen.conflict_sets prop with
    | Gen.Pass _ -> Alcotest.fail "property unexpectedly passed"
    | Gen.Fail f -> f
  in
  let f = run () and f' = run () in
  check_int "shrunk to the boundary" 2 (List.length f.Gen.shrunk);
  check_int "replay: same case" f.Gen.case f'.Gen.case;
  check_string "replay: same counterexample"
    (Gen.conflict_sets.Gen.print f.Gen.shrunk)
    (Gen.conflict_sets.Gen.print f'.Gen.shrunk);
  check_bool "reports the message" true (f.Gen.message = "too many conflicts")

let test_gen_well_formed () =
  (* every generated and every shrunk scenario must build a valid netlist *)
  expect_pass "netlists well-formed" 100 Gen.scenario (fun sc ->
      let nominal, faulty = Gen.scenario_netlists sc in
      let solvable n =
        match Flames_sim.Mna.solve n with
        | _ -> Ok ()
        | exception ex -> Error (Printexc.to_string ex)
      in
      Result.bind (solvable nominal) (fun () -> solvable faulty))

(* {1 Resilience: chaos harness, degraded oracle, budget check-points} *)

module Chaos = Flames_check.Chaos
module Budget = Flames_core.Budget
module Hitting = Flames_atms.Hitting
module Diagnose = Flames_core.Diagnose
module Propagate = Flames_core.Propagate
module Model = Flames_core.Model

(* Satellite: >= 300 seeded chaos cases.  Each case is a complete
   chaotic batch — pool supervision, retry with backoff, circuit
   breaker, candidate budget — over a small job count, with every
   invariant of [Chaos.check] asserted.  A failure message carries the
   seed, which replays the case deterministically. *)
let test_chaos_property () =
  let config =
    { Chaos.default with jobs = 3; workers = 2; retries = 2; p_delay = 0.05 }
  in
  for case = 0 to 299 do
    let seed = Rng.case_seed ~seed:0x5EED5 ~case in
    match Chaos.check ~config seed with
    | Ok () -> ()
    | Error m -> Alcotest.failf "chaos case %d (seed %d): %s" case seed m
  done

let test_chaos_default () =
  match Chaos.run () with
  | Error m -> Alcotest.failf "default chaos run: %s" m
  | Ok r ->
    check_int "cases" Chaos.default.Chaos.jobs r.Chaos.cases;
    (* exercise the report printer *)
    check_bool "report renders" true
      (String.length (Format.asprintf "%a" Chaos.pp_report r) > 0)

let test_chaos_wall_budget () =
  (* a wall budget instead of a candidate quota: Timed_out/Cancelled
     become admissible outcomes and the subset oracle is (correctly)
     skipped — see invariant 4 *)
  let config =
    {
      Chaos.default with
      jobs = 6;
      budget_candidates = None;
      budget_wall = Some 0.01;
      retries = 1;
    }
  in
  match Chaos.run ~config () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "wall-budget chaos: %s" m

(* Satellite: mid-session fault injection — each case replays a random
   session script with a fault point that raises between steps, then
   asserts the transactional/soundness invariants of
   [Chaos.check_session]. *)
let test_chaos_session () =
  for case = 0 to 99 do
    let seed = Rng.case_seed ~seed:0x5E551 ~case in
    match Chaos.check_session seed with
    | Ok () -> ()
    | Error m -> Alcotest.failf "session chaos case %d (seed %d): %s" case seed m
  done

let test_degraded_oracle () =
  expect_pass "degraded oracle" 60 Gen.scenario Oracle.check_degraded

(* The propagation-engine differential oracle: >= 300 seeded scenarios,
   each diagnosed in production and replayed pass by pass on the
   reference engine (full, schedule-reuse, wall-budget reuse, step and
   env quotas, candidate quota), every cell and nogood hex-exact. *)
let test_compiled_oracle () =
  expect_pass "engine vs reference" 300 Gen.scenario Oracle.check_compiled

(* The five fig-7 defect diagnoses, pinned hex-exact: the MD5 of each
   [Oracle.result_fingerprint] (every symptom verdict, conflict degree,
   fit estimate and residual, and rank).  A run on a pre-compiled
   schedule must print the same fingerprint, and every propagation pass
   must match the reference engine ([Oracle.check_engine]). *)
let fig7_md5 =
  [
    ("R2 short", "508df43940c9503c413765fe13d26417");
    ("R2 slightly high", "92252301a49fdbb55562939877c4e3fa");
    ("Beta2 slightly low", "a84b8373ea2b8242d51a8d326bbd4bde");
    ("R3 open", "5e02cf087e96cccc88e51fb43eb2c5e6");
    ("N1 open", "914fd7e043d41ad4631f4cb340160206");
  ]

let test_fig7_fingerprints () =
  let jobs = Flames_experiments.Fig7.jobs () in
  check_int "five defects" (List.length fig7_md5) (List.length jobs);
  List.iter2
    (fun (label, md5) (j : Flames_engine.Batch.job) ->
      let module B = Flames_engine.Batch in
      check_string "job label" label j.B.label;
      let config = j.B.config and net = j.B.netlist and obs = j.B.observations in
      let fp = Oracle.result_fingerprint (Diagnose.run ?config net obs) in
      check_string (label ^ ": fingerprint md5") md5
        (Digest.to_hex (Digest.string fp));
      let schedule = Flames_core.Schedule.compile ?config net in
      check_string (label ^ ": pre-compiled schedule") fp
        (Oracle.result_fingerprint (Diagnose.run ~schedule net obs));
      match Oracle.check_engine ?config net obs with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" label m)
    fig7_md5 jobs

let test_budget_charges () =
  let b = Budget.start (Budget.spec ~max_steps:3 ()) in
  check_bool "ok before" true (Budget.ok b);
  check_bool "charge within quota" true (Budget.charge_steps b 2);
  check_bool "charge trips" false (Budget.charge_steps b 2);
  check_bool "tripped" true (Budget.tripped b);
  check_bool "trip recorded" true (List.mem Budget.Steps (Budget.trips b));
  check_bool "interrupt fires" true (Budget.interrupt_of b ());
  let c = Budget.fresh () in
  check_bool "fresh is unlimited" true (Budget.charge_steps c 1_000_000);
  Budget.cancel c;
  check_bool "cancelled not ok" false (Budget.ok c);
  check_bool "cancel trip" true (List.mem Budget.Cancel (Budget.trips c))

let test_hitting_interrupt_floor () =
  let conflicts = [ e [ 1; 2 ]; e [ 2; 3 ]; e [ 4 ] ] in
  let full = Hitting.minimal_hitting_sets conflicts in
  (* an interrupt that is already tripped when enumeration starts: the
     >= 1 candidate floor must still yield a genuine minimal hitting
     set, and the truncation must be reported *)
  let sets, truncated =
    Hitting.enumerate ~interrupt:(fun () -> true) conflicts
  in
  check_bool "truncated" true truncated;
  check_bool "candidate floor" true (List.length sets >= 1);
  List.iter
    (fun s ->
      check_bool "sound: member of full enumeration" true
        (List.exists (Env.equal s) full);
      check_bool "hits every conflict" true (Hitting.hits_all s conflicts))
    sets;
  (* the floor does not invent candidates when none exist *)
  let sets, _ = Hitting.enumerate ~interrupt:(fun () -> true) [ Env.empty ] in
  check_int "no hitting set" 0 (List.length sets)

(* {1 Incremental sessions (satellite: >= 300 differential cases)} *)

module Session = Flames_session.Session

(* Every case replays a random add/retract/refine script through a live
   session and requires the diagnosis after each step to be
   hex-fingerprint-identical to a from-scratch [Diagnose.run] over the
   same measurement multiset — including scripts that retract down to an
   empty session and re-measure. *)
let test_session_oracle_random () =
  expect_pass "session equivalence" 300 Gen.session_script
    Oracle.check_session

let test_session_oracle_retractions () =
  (* biased variant: force retraction/refinement coverage by appending a
     retract and a refine to every generated script *)
  let biased =
    {
      Gen.session_script with
      Gen.gen =
        (fun rng ->
          let s = Gen.session_script.Gen.gen rng in
          {
            s with
            Gen.ops = s.Gen.ops @ [ Gen.S_retract 0; Gen.S_add 0; Gen.S_refine 1 ];
          });
    }
  in
  expect_pass "session retraction equivalence" 60 biased Oracle.check_session

let test_session_retract_readd_roundtrip () =
  (* retracting a measurement and re-adding the same interval must land
     on a diagnosis fingerprint-identical to never having retracted *)
  let r = Rng.make (Rng.case_seed ~seed:0x5E55 ~case:1) in
  let sc = Gen.scenario.Gen.gen r in
  let nominal, _ = Gen.scenario_netlists sc in
  let obs = Gen.scenario_observations sc in
  match obs with
  | [] -> Alcotest.fail "scenario produced no observations"
  | (q0, v0) :: rest ->
    let straight = Session.create nominal in
    List.iter
      (fun (q, v) -> ignore (Session.add_measurement straight q v))
      (obs : (_ * _) list);
    let detour = Session.create nominal in
    let m0 = Session.add_measurement detour q0 v0 in
    List.iter (fun (q, v) -> ignore (Session.add_measurement detour q v)) rest;
    check_bool "retract live id" true (Session.retract detour ~id:m0.Session.id);
    ignore (Session.add_measurement detour q0 v0);
    (* same multiset, different insertion order: compare against the
       reference over each session's own list *)
    let fingerprint s =
      Oracle.result_fingerprint (Session.diagnoses s)
    and reference s =
      Oracle.result_fingerprint
        (Diagnose.run ~model:(Session.model s) nominal
           (List.map
              (fun (m : Session.measurement) ->
                (m.Session.quantity, m.Session.interval))
              (Session.measurements s)))
    in
    check_string "straight session == scratch" (reference straight)
      (fingerprint straight);
    check_string "detour session == scratch" (reference detour)
      (fingerprint detour)

let test_propagate_step_budget () =
  let r = Rng.make (Rng.case_seed ~seed:0xB4D6E7 ~case:0) in
  let scenario = Gen.scenario.Gen.gen r in
  let _, faulty = Gen.scenario_netlists scenario in
  let obs = Gen.scenario_observations scenario in
  let model = Model.compile faulty in
  let budget = Budget.start (Budget.spec ~max_steps:1 ()) in
  let p = Propagate.create ~budget model in
  List.iter (fun (q, v) -> Propagate.observe p q v) obs;
  Propagate.run p;
  check_bool "truncated after one step" true (Propagate.truncated p);
  check_bool "steps trip recorded" true
    (List.mem Budget.Steps (Budget.trips budget));
  (* the same quota through the diagnosis front door: flagged degraded *)
  let budget = Budget.start (Budget.spec ~max_steps:1 ()) in
  let res = Diagnose.run ~budget faulty obs in
  check_bool "diagnosis degraded" true res.Diagnose.degraded;
  check_bool "diagnosis trips" true
    (List.mem Budget.Steps res.Diagnose.trips)

let () =
  Alcotest.run "check"
    [
      ( "hitting-oracle",
        [
          Alcotest.test_case "random-500" `Slow test_hitting_oracle_random;
          Alcotest.test_case "directed-edges" `Quick test_hitting_directed_edges;
        ] );
      ( "env-oracle",
        [
          Alcotest.test_case "bitset-random-500" `Slow test_env_oracle_random;
          Alcotest.test_case "envindex-random-500" `Slow
            test_envindex_oracle_random;
          Alcotest.test_case "directed-edges" `Quick test_env_oracle_directed;
        ] );
      ( "fuzzy-oracles",
        [
          Alcotest.test_case "arith" `Slow test_arith_oracle;
          Alcotest.test_case "consistency" `Slow test_consistency_oracle;
        ] );
      ("mna-oracle", [ Alcotest.test_case "dense-solve" `Slow test_mna_oracle ]);
      ( "atms-audit",
        [
          Alcotest.test_case "random-networks" `Slow test_atms_audit_random;
          Alcotest.test_case "debug-hook" `Quick test_atms_audit_debug_hook;
        ] );
      ( "diagnosis",
        [ Alcotest.test_case "invariants" `Slow test_diagnosis_invariants ] );
      ( "engine",
        [ Alcotest.test_case "batch-determinism" `Slow test_batch_determinism ]
      );
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_gen_determinism;
          Alcotest.test_case "shrinking" `Quick test_gen_shrinking;
          Alcotest.test_case "well-formed" `Slow test_gen_well_formed;
        ] );
      ( "session-oracle",
        [
          Alcotest.test_case "random-300" `Slow test_session_oracle_random;
          Alcotest.test_case "retraction-biased" `Slow
            test_session_oracle_retractions;
          Alcotest.test_case "retract-readd-roundtrip" `Quick
            test_session_retract_readd_roundtrip;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "chaos-property-300" `Slow test_chaos_property;
          Alcotest.test_case "chaos-default" `Slow test_chaos_default;
          Alcotest.test_case "chaos-wall-budget" `Slow test_chaos_wall_budget;
          Alcotest.test_case "chaos-session-100" `Slow test_chaos_session;
          Alcotest.test_case "degraded-oracle" `Slow test_degraded_oracle;
          Alcotest.test_case "compiled-oracle-300" `Slow test_compiled_oracle;
          Alcotest.test_case "fig7-fingerprints" `Slow test_fig7_fingerprints;
          Alcotest.test_case "budget-charges" `Quick test_budget_charges;
          Alcotest.test_case "hitting-interrupt-floor" `Quick
            test_hitting_interrupt_floor;
          Alcotest.test_case "propagate-step-budget" `Quick
            test_propagate_step_budget;
        ] );
    ]
