(* Tests for the DC simulator substrate: linear algebra, MNA solving,
   piecewise-linear device regions, measurements and sensitivities. *)

module I = Flames_fuzzy.Interval
module Q = Flames_circuit.Quantity
module C = Flames_circuit.Component
module N = Flames_circuit.Netlist
module F = Flames_circuit.Fault
module L = Flames_circuit.Library
module Linalg = Flames_sim.Linalg
module Mna = Flames_sim.Mna
module Measure = Flames_sim.Measure
module Sensitivity = Flames_sim.Sensitivity

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* {1 Linalg} *)

let test_solve_identity () =
  let a = [| [| 1.; 0. |]; [| 0.; 1. |] |] and b = [| 3.; 4. |] in
  let x = Linalg.solve a b in
  check_float "x0" 3. x.(0);
  check_float "x1" 4. x.(1)

let test_solve_2x2 () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] and b = [| 5.; 10. |] in
  let x = Linalg.solve a b in
  check_float "x0" 1. x.(0);
  check_float "x1" 3. x.(1);
  check_bool "residual tiny" true (Linalg.residual_norm a x b < 1e-9)

let test_solve_needs_pivoting () =
  (* zero on the diagonal: partial pivoting required *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] and b = [| 2.; 7. |] in
  let x = Linalg.solve a b in
  check_float "x0" 7. x.(0);
  check_float "x1" 2. x.(1)

let test_solve_singular () =
  let a = [| [| 1.; 1. |]; [| 2.; 2. |] |] and b = [| 1.; 2. |] in
  match Linalg.solve a b with
  | exception Linalg.Singular -> ()
  | _ -> Alcotest.fail "singular matrix must raise"

let test_solve_dimension_mismatch () =
  match Linalg.solve [| [| 1. |] |] [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dimension mismatch must raise"

let test_solve_random_roundtrip () =
  (* A·x = b with known x: deterministic pseudo-random instance *)
  let n = 8 in
  let seed = ref 42 in
  let rand () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !seed /. float_of_int 0x3FFFFFFF) -. 0.5
  in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> rand ())) in
  (* diagonal dominance guarantees solvability *)
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. 10.
  done;
  let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
  let b =
    Array.init n (fun i ->
        let s = ref 0. in
        for j = 0 to n - 1 do
          s := !s +. (a.(i).(j) *. x_true.(j))
        done;
        !s)
  in
  let x = Linalg.solve a b in
  Array.iteri (fun i xi -> check_close "roundtrip" 1e-9 x_true.(i) xi) x

(* {1 Lu: reusable factors for right-hand-side sweeps} *)

module Lu = Flames_sim.Lu

let bits_equal x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

(* the contract the fault sweep rests on: [resolve (factor a) b] is
   bit-identical to [Linalg.solve_opt a b] — including the row-swap
   sequence, the relative pivot threshold and the zero-multiplier skip —
   over random dense and sparse-ish systems of varying conditioning *)
let test_lu_resolve_bit_identity () =
  let seed = ref 42 in
  let rand () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !seed /. float_of_int 0x3FFFFFFF
  in
  let total = ref 0 in
  for n = 1 to 10 do
    for _trial = 1 to 100 do
      let a =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                (* wide magnitude spread, ~1/5 exact zeros: exercises
                   pivoting and the f <> 0 multiplier skip *)
                if rand () < 0.2 then 0.
                else (rand () -. 0.5) *. (10. ** ((rand () *. 6.) -. 3.))))
      in
      let b = Array.init n (fun _ -> (rand () -. 0.5) *. 10.) in
      match (Linalg.solve_opt a b, Lu.factor a) with
      | Error `Singular, Error `Singular -> ()
      | Error `Singular, Ok _ -> Alcotest.fail "factor missed a singularity"
      | Ok _, Error `Singular -> Alcotest.fail "factor spuriously singular"
      | Ok x, Ok f ->
        incr total;
        if not (bits_equal x (Lu.resolve f b)) then
          Alcotest.failf "resolve not bit-identical at n=%d" n
    done
  done;
  check_bool "exercised nonsingular systems" true (!total > 500)

let test_lu_resolve_many_rhs () =
  (* one factorisation, many right-hand sides — the sweep shape *)
  let a = [| [| 0.; 1.; 2. |]; [| 3.; 1.; 0. |]; [| 1.; 0.; 1. |] |] in
  let f =
    match Lu.factor a with
    | Ok f -> f
    | Error `Singular -> Alcotest.fail "unexpected singular"
  in
  List.iter
    (fun b ->
      match Linalg.solve_opt a b with
      | Ok x -> check_bool "rhs bit-identical" true (bits_equal x (Lu.resolve f b))
      | Error `Singular -> Alcotest.fail "unexpected singular")
    [ [| 1.; 2.; 3. |]; [| 0.; 0.; 1. |]; [| -5.; 7.; 0.25 |] ]

(* The sweep context must be transparent: every solve through a shared
   sweep returns bit-identical solutions to the sweep-free path.  First
   the same circuit twice (the second solve hits the cached factors),
   then a single-parameter fit sweep shaped like [Diagnose]'s: one
   resistor and one transistor's beta of the amplifier, each over the
   coarse multiplier grid of [Diagnose.fit_parameter], all through one
   shared sweep as a diagnosis's suspects share one. *)
let test_mna_sweep_transparent () =
  let net = L.three_stage_amplifier () in
  let bits (a : Mna.solution) =
    let col = List.map (fun (n, v) -> (n, Int64.bits_of_float v)) in
    (col a.Mna.voltages, col a.Mna.currents, a.Mna.regions)
  in
  let outcome ?sweep net =
    match Mna.solve ?sweep net with
    | sol -> Ok (bits sol)
    | exception e -> Error (Printexc.to_string e)
  in
  let same label a b = check_bool label true (a = b) in
  let plain = outcome net in
  let sweep = Mna.sweep () in
  same "sweep first solve bit-identical" plain (outcome ~sweep net);
  same "sweep reuse bit-identical" plain (outcome ~sweep net);
  let coarse =
    [ 1e-6; 1e-3; 0.01; 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.85; 0.95; 1.;
      1.05; 1.15; 1.3; 1.5; 2.; 3.; 5.; 10.; 100.; 1e3; 1e6; 1e9 ]
  in
  let fit = Mna.sweep () in
  List.iter
    (fun (name, parameter) ->
      let comp = N.find net name in
      let nominal = I.centroid (C.nominal_parameter comp parameter) in
      List.iter
        (fun m ->
          let net' =
            N.replace net
              (C.with_parameter comp parameter (I.crisp (nominal *. m)))
          in
          same
            (Printf.sprintf "%s.%s x%g bit-identical" name parameter m)
            (outcome net') (outcome ~sweep:fit net'))
        coarse)
    [ ("r2", "R"); ("t2", "beta") ]

(* {1 MNA basics} *)

let test_divider () =
  let sol = Mna.solve (L.voltage_divider ()) in
  check_close "mid = vin/2" 1e-6 5. (Mna.voltage sol "mid");
  check_close "in = vin" 1e-6 10. (Mna.voltage sol "in");
  check_float "gnd" 0. (Mna.voltage sol "gnd");
  check_close "current" 1e-9 5e-4 (Mna.current sol "r1")

let test_divider_kcl () =
  let sol = Mna.solve (L.voltage_divider ()) in
  check_close "series currents equal" 1e-12 (Mna.current sol "r1")
    (Mna.current sol "r2")

let test_gain_chain () =
  let sol = Mna.solve (L.amplifier_chain ()) in
  check_close "A" 1e-9 3. (Mna.voltage sol "A");
  check_close "B" 1e-9 3. (Mna.voltage sol "B");
  check_close "C" 1e-9 6. (Mna.voltage sol "C");
  check_close "D" 1e-9 18. (Mna.voltage sol "D")

let test_diode_conducting () =
  let sol = Mna.solve (L.diode_resistor ~powered:true ()) in
  (* (2.25 − 0.2) / 20 kΩ = 102.5 µA *)
  check_close "diode current" 1e-9 102.5e-6 (Mna.current sol "d1");
  check_close "n1" 1e-6 1.225 (Mna.voltage sol "n1");
  check_close "n2" 1e-6 1.025 (Mna.voltage sol "n2")

let test_diode_blocked () =
  (* reverse the source: the diode must block and carry no current *)
  let net =
    N.make ~name:"reverse" ~ground:"gnd"
      [
        C.vsource "vin" ~volts:(I.crisp (-2.)) ~p:"in" ~n:"gnd";
        C.resistor "r1" ~ohms:(I.crisp 10e3) ~p:"in" ~n:"n1";
        C.diode "d1" ~forward_drop:(I.crisp 0.2)
          ~max_current:(I.crisp 1e-4) ~p:"n1" ~n:"n2";
        C.resistor "r2" ~ohms:(I.crisp 10e3) ~p:"n2" ~n:"gnd";
      ]
  in
  let sol = Mna.solve net in
  check_float "no current" 0. (Mna.current sol "d1");
  check_close "n2 floats to ground through r2" 1e-6 0. (Mna.voltage sol "n2")

(* {1 MNA on the three-stage amplifier} *)

let amp () = L.three_stage_amplifier ()

let test_amplifier_bias () =
  let sol = Mna.solve (amp ()) in
  (* reconstruction of fig. 6: all transistors active, V1 between the
     rails, followers 0.7 below their bases *)
  List.iter
    (fun t -> check_bool (t ^ " active") true (Mna.region sol t = Mna.Active))
    [ "t1"; "t2"; "t3" ];
  let v1 = Mna.voltage sol "v1" in
  check_bool "v1 in linear region" true (v1 > 2. && v1 < 17.);
  check_close "follower drop t2" 1e-6 0.7
    (v1 -. Mna.voltage sol "n2");
  check_close "follower drop t3" 1e-6 0.7
    (Mna.voltage sol "n2" -. Mna.voltage sol "vs")

let test_amplifier_beta_relation () =
  let sol = Mna.solve (amp ()) in
  check_close "Ic1 = beta1 Ib1" 1e-12
    (300. *. Mna.current sol "t1.b")
    (Mna.current sol "t1.c")

let test_amplifier_kcl_at_v1 () =
  let sol = Mna.solve (amp ()) in
  (* I(r2) into v1 = Ic1 + Ib2 *)
  let ir2 = Mna.current sol "r2" in
  let ic1 = Mna.current sol "t1.c" and ib2 = Mna.current sol "t2.b" in
  check_close "KCL at v1" 1e-9 ir2 (ic1 +. ib2)

let test_cutoff_region () =
  (* grounding the divider cuts T1 off *)
  let net = F.inject (amp ()) (F.short "r3" ~parameter:"R") in
  let sol = Mna.solve net in
  check_bool "t1 cutoff" true (Mna.region sol "t1" = Mna.Cutoff);
  check_float "no base current" 0. (Mna.current sol "t1.b");
  (* collector pulled towards the rail (minus the t2 base-current drop) *)
  check_bool "v1 near vcc" true (Mna.voltage sol "v1" > 17.)

let test_saturation_region () =
  (* shorting r1 slams the base to the rail: T1 must saturate, with its
     collector-emitter voltage clamped near Vce,sat, not driven negative *)
  let net = F.inject (amp ()) (F.short "r1" ~parameter:"R") in
  let sol = Mna.solve net in
  check_bool "t1 saturated" true (Mna.region sol "t1" = Mna.Saturated);
  let vce = Mna.voltage sol "v1" -. Mna.voltage sol "e1" in
  check_close "vce clamped" 0.05 0.2 vce

let test_open_node_simulation () =
  let net = F.open_node (amp ()) "n1" in
  let sol = Mna.solve net in
  (* base starves → t1 cut off → collector near the rail *)
  check_bool "v1 rises" true (Mna.voltage sol "v1" > 16.)

(* {1 Measure} *)

let test_fuzzify () =
  let inst = { Measure.relative = 0.01; floor = 1e-3 } in
  let v = Measure.fuzzify inst 10. in
  check_float "centred" 10. (I.centroid v);
  check_float "spread 1%" 0.1 v.I.alpha;
  let tiny = Measure.fuzzify inst 0.001 in
  check_float "floor applies" 1e-3 tiny.I.alpha;
  let exact = Measure.fuzzify Measure.exact_instrument 5. in
  check_bool "exact is crisp" true (I.is_point exact)

let test_probe () =
  let sol = Mna.solve (L.voltage_divider ()) in
  (match Measure.probe sol (Q.voltage "mid") with
  | Some v -> check_close "probed mid" 0.1 5. (I.centroid v)
  | None -> Alcotest.fail "node probe failed");
  (match Measure.probe sol (Q.current "r1") with
  | Some v -> check_close "probed current" 1e-6 5e-4 (I.centroid v)
  | None -> Alcotest.fail "current probe failed");
  check_bool "parameter not measurable" true
    (Measure.probe sol (Q.parameter "r1" "R") = None);
  check_bool "unknown node" true (Measure.probe sol (Q.voltage "zz") = None)

let test_probe_all () =
  let sol = Mna.solve (L.voltage_divider ()) in
  let got =
    Measure.probe_all sol [ Q.voltage "mid"; Q.parameter "r1" "R" ]
  in
  Alcotest.(check int) "only measurable" 1 (List.length got)

(* {1 Sensitivity} *)

let test_sensitivity_divider () =
  let reports = Sensitivity.analyze (L.voltage_divider ()) in
  let mid =
    List.find (fun (r : Sensitivity.node_report) -> r.Sensitivity.node = "mid") reports
  in
  check_close "nominal" 1e-6 5. mid.Sensitivity.nominal;
  (* both resistors and the source influence the divider output *)
  let supporters = Sensitivity.supporters mid in
  List.iter
    (fun c -> check_bool (c ^ " supports mid") true (List.mem c supporters))
    [ "r1"; "r2"; "vin" ];
  check_bool "spread positive" true (mid.Sensitivity.total_spread > 0.)

let test_sensitivity_locality () =
  let reports = Sensitivity.analyze (amp ()) in
  let v1 =
    List.find (fun (r : Sensitivity.node_report) -> r.Sensitivity.node = "v1") reports
  in
  let supporters = Sensitivity.supporters v1 in
  (* stage-1 components matter to V1; downstream faults can also reach
     it through base-current loading, so influence is judged at the
     node where stages decouple: nothing downstream moves E1 *)
  check_bool "r2 supports v1" true (List.mem "r2" supporters);
  check_bool "r1 supports v1" true (List.mem "r1" supporters);
  let e1 =
    List.find (fun (r : Sensitivity.node_report) -> r.Sensitivity.node = "e1")
      (Sensitivity.analyze (amp ()))
  in
  check_bool "r6 does not support e1" false
    (List.mem "r6" (Sensitivity.supporters e1))

let test_sensitivity_downstream () =
  let reports = Sensitivity.analyze (amp ()) in
  let vs =
    List.find (fun (r : Sensitivity.node_report) -> r.Sensitivity.node = "vs") reports
  in
  let supporters = Sensitivity.supporters vs in
  (* the output sees the whole signal path *)
  List.iter
    (fun c -> check_bool (c ^ " supports vs") true (List.mem c supporters))
    [ "r1"; "r2"; "r3"; "t1" ]

let () =
  Alcotest.run "sim"
    [
      ( "linalg",
        [
          Alcotest.test_case "identity" `Quick test_solve_identity;
          Alcotest.test_case "2x2" `Quick test_solve_2x2;
          Alcotest.test_case "pivoting" `Quick test_solve_needs_pivoting;
          Alcotest.test_case "singular" `Quick test_solve_singular;
          Alcotest.test_case "dimensions" `Quick
            test_solve_dimension_mismatch;
          Alcotest.test_case "roundtrip" `Quick test_solve_random_roundtrip;
        ] );
      ( "lu",
        [
          Alcotest.test_case "resolve bit-identity" `Quick
            test_lu_resolve_bit_identity;
          Alcotest.test_case "many right-hand sides" `Quick
            test_lu_resolve_many_rhs;
          Alcotest.test_case "sweep transparent" `Quick
            test_mna_sweep_transparent;
        ] );
      ( "mna",
        [
          Alcotest.test_case "divider" `Quick test_divider;
          Alcotest.test_case "divider KCL" `Quick test_divider_kcl;
          Alcotest.test_case "gain chain" `Quick test_gain_chain;
          Alcotest.test_case "diode conducting" `Quick test_diode_conducting;
          Alcotest.test_case "diode blocked" `Quick test_diode_blocked;
        ] );
      ( "amplifier",
        [
          Alcotest.test_case "bias point" `Quick test_amplifier_bias;
          Alcotest.test_case "beta relation" `Quick
            test_amplifier_beta_relation;
          Alcotest.test_case "KCL at v1" `Quick test_amplifier_kcl_at_v1;
          Alcotest.test_case "cutoff" `Quick test_cutoff_region;
          Alcotest.test_case "saturation" `Quick test_saturation_region;
          Alcotest.test_case "open node" `Quick test_open_node_simulation;
        ] );
      ( "measure",
        [
          Alcotest.test_case "fuzzify" `Quick test_fuzzify;
          Alcotest.test_case "probe" `Quick test_probe;
          Alcotest.test_case "probe_all" `Quick test_probe_all;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "divider" `Quick test_sensitivity_divider;
          Alcotest.test_case "locality" `Quick test_sensitivity_locality;
          Alcotest.test_case "downstream" `Quick test_sensitivity_downstream;
        ] );
    ]
