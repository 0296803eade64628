module C = Flames_circuit.Component
module N = Flames_circuit.Netlist
module Interval = Flames_fuzzy.Interval

type entry = { component : string; influence : float; spread : float }

type node_report = {
  node : string;
  nominal : float;
  total_spread : float;
  entries : entry list;
}

let probe_step = 0.01

(* Half-width of the parameter's support relative to its centroid — the
   tolerance the manufacturer states. *)
let relative_tolerance interval =
  let lo, hi = Interval.support interval in
  let c = Interval.centroid interval in
  if c = 0. then 0. else (hi -. lo) /. 2. /. Float.abs c

let solution_with ?sweep netlist (c : C.t) param multiplier =
  let nominal = C.nominal_parameter c param in
  let center = Interval.centroid nominal in
  if center = 0. then None
  else
    let moved = Interval.crisp (center *. multiplier) in
    let netlist' = N.replace netlist (C.with_parameter c param moved) in
    match Mna.solve ?sweep netlist' with
    | sol -> Some sol
    | exception (Mna.No_convergence _ | Linalg.Singular) -> None

let perturbed_solution ?sweep netlist c param =
  solution_with ?sweep netlist c param (1. +. probe_step)

(* Hard-fault worlds: whether a component can explain a deviation on a
   node at all is judged at the extremes, not only by the linearised 1 %
   move — an open collector load moves nodes the small-signal analysis
   says it cannot touch.  The extremes are parameter-appropriate: a
   resistance can short or open, a source or junction drop can collapse
   or double, a gain can die or run away. *)
let extreme_multipliers = function
  | "R" -> [ 1e-6; 1e9 ]
  | "V" | "Vf" | "vbe" -> [ 1e-6; 2. ]
  | "beta" | "beta+1" | "gain" -> [ 1e-6; 10. ]
  | _ -> []

let extreme_solutions ?sweep netlist c param =
  List.filter_map (solution_with ?sweep netlist c param) (extreme_multipliers param)

let analyze netlist =
  (* One sweep for the whole analysis: the nominal system solved first
     becomes the factor base that every 1 % probe leaving the matrix
     unchanged (source and junction-drop parameters) re-solves against;
     a fresh context per call keeps the result a pure function of the
     netlist. *)
  let sweep = Mna.sweep () in
  let base = Mna.solve ~sweep netlist in
  let nodes =
    List.filter (fun n -> n <> netlist.N.ground) (N.nodes netlist)
  in
  let base_v n = List.assoc n base.Mna.voltages in
  (* per component: (influence per node, spread per node) *)
  let per_component =
    List.map
      (fun (c : C.t) ->
        let params = C.parameter_names c.kind in
        let deltas =
          List.filter_map
            (fun param ->
              match perturbed_solution ~sweep netlist c param with
              | None -> None
              | Some sol ->
                let tol = relative_tolerance (C.nominal_parameter c param) in
                let extremes = extreme_solutions ~sweep netlist c param in
                Some
                  (List.map
                     (fun n ->
                       let dv =
                         Float.abs (List.assoc n sol.Mna.voltages -. base_v n)
                       in
                       let dv_extreme =
                         List.fold_left
                           (fun acc s ->
                             Float.max acc
                               (Float.abs
                                  (List.assoc n s.Mna.voltages -. base_v n)))
                           dv extremes
                       in
                       (n, dv_extreme, dv *. (tol /. probe_step)))
                     nodes))
            params
        in
        let influence n =
          List.fold_left
            (fun acc per_node ->
              List.fold_left
                (fun acc (n', dv, _) -> if n' = n then Float.max acc dv else acc)
                acc per_node)
            0. deltas
        and spread n =
          List.fold_left
            (fun acc per_node ->
              List.fold_left
                (fun acc (n', _, s) -> if n' = n then acc +. s else acc)
                acc per_node)
            0. deltas
        in
        (c.name, influence, spread))
      netlist.N.components
  in
  List.map
    (fun node ->
      let entries =
        List.map
          (fun (component, influence, spread) ->
            { component; influence = influence node; spread = spread node })
          per_component
        |> List.sort (fun a b -> Float.compare b.influence a.influence)
      in
      let total_spread =
        List.fold_left (fun acc e -> acc +. e.spread) 0. entries
      in
      { node; nominal = base_v node; total_spread; entries })
    nodes

let supporters ?(threshold = 0.02) report =
  let max_influence =
    List.fold_left (fun acc e -> Float.max acc e.influence) 0. report.entries
  in
  if max_influence <= 0. then []
  else
    report.entries
    |> List.filter (fun e -> e.influence >= threshold *. max_influence)
    |> List.map (fun e -> e.component)
