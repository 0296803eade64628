module C = Flames_circuit.Component
module N = Flames_circuit.Netlist
module Interval = Flames_fuzzy.Interval

type bjt_region = Active | Cutoff | Saturated
type diode_mode = Conducting | Blocked

type solution = {
  voltages : (string * float) list;
  currents : (string * float) list;
  regions : (string * bjt_region) list;
}

exception No_convergence of string

let vce_sat = 0.2

(* Small series resistances in the saturated model: ideal stacked
   voltage-drop models can form contradictory source loops (two saturated
   followers fighting over one node); a one-ohm series term keeps the
   system regular without visibly moving the operating point. *)
let r_sat = 1.0
let tolerance = 1e-9

type state = {
  bjt : (string * bjt_region) list;
  diode : (string * diode_mode) list;
}

(* Factor reuse across a parameter sweep.  One entry per device-region
   assignment: the first matrix solved under that assignment becomes the
   base whose LU factors answer later systems with the same matrix (only
   the right-hand side moved: source, diode or junction-drop sweeps),
   bit-identically; any other matrix gets an ordinary full solve.  The
   sweep is an optimisation context only: it never changes which
   systems are solved nor a single bit of their solutions. *)
type sweep = { factors : (string, float array array * Lu.t) Hashtbl.t }

let sweep () = { factors = Hashtbl.create 8 }

let lu_resolves_total =
  Flames_obs.Metrics.counter "flames_mna_lu_resolves_total"
    ~help:"DC solves answered by re-solving cached LU factors (bit-identical)"

let state_key state =
  let b = Buffer.create 64 in
  List.iter
    (fun (n, r) ->
      Buffer.add_string b n;
      Buffer.add_char b
        (match r with Active -> 'a' | Cutoff -> 'u' | Saturated -> 's'))
    state.bjt;
  Buffer.add_char b '|';
  List.iter
    (fun (n, m) ->
      Buffer.add_string b n;
      Buffer.add_char b (match m with Conducting -> 'c' | Blocked -> 'b'))
    state.diode;
  Buffer.contents b

let matrices_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 (fun x y -> Float.equal x y) ra rb)
       a b

let initial_state netlist =
  let bjt, diode =
    List.fold_left
      (fun (bjt, diode) (c : C.t) ->
        match c.kind with
        | C.Bjt _ -> ((c.name, Active) :: bjt, diode)
        | C.Diode _ -> (bjt, (c.name, Conducting) :: diode)
        | C.Resistor _ | C.Capacitor _ | C.Inductor _ | C.Voltage_source _
        | C.Gain_block _ ->
          (bjt, diode))
      ([], []) netlist.N.components
  in
  { bjt; diode }

(* Solve [a x = rhs], answering from sweep factors when possible.  The
   no-sweep path is exactly [Linalg.solve]; the cached path reproduces
   it bit for bit ([Lu.resolve]). *)
let solve_system ?sweep state a rhs =
  match sweep with
  | None -> Linalg.solve a rhs
  | Some sw -> begin
    let key = state_key state in
    match Hashtbl.find_opt sw.factors key with
    | None -> begin
      match Lu.factor a with
      | Error `Singular -> raise Linalg.Singular
      | Ok f ->
        Hashtbl.add sw.factors key (Array.map Array.copy a, f);
        Lu.resolve f rhs
    end
    | Some (a0, f) ->
      if matrices_equal a0 a then begin
        Flames_obs.Metrics.incr lu_resolves_total;
        Lu.resolve f rhs
      end
      else Linalg.solve a rhs
  end

(* One linear solve for a fixed assignment of device regions. *)
let solve_linear ?sweep netlist state =
  let ground = netlist.N.ground in
  let node_names = List.filter (fun n -> n <> ground) (N.nodes netlist) in
  let node_index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add node_index n i) node_names;
  let n_nodes = List.length node_names in
  (* allocate branch-current unknowns *)
  let branches = ref [] in
  let n_branch = ref 0 in
  let new_branch key =
    let j = n_nodes + !n_branch in
    incr n_branch;
    branches := (key, j) :: !branches;
    j
  in
  List.iter
    (fun (c : C.t) ->
      match c.kind with
      | C.Voltage_source _ -> ignore (new_branch c.name)
      | C.Inductor _ ->
        (* short at DC: a 0 V source with its current as unknown *)
        ignore (new_branch c.name)
      | C.Gain_block _ -> ignore (new_branch c.name)
      | C.Diode _ ->
        if List.assoc c.name state.diode = Conducting then
          ignore (new_branch c.name)
      | C.Bjt _ -> begin
        match List.assoc c.name state.bjt with
        | Active -> ignore (new_branch (c.name ^ ".b"))
        | Cutoff -> ()
        | Saturated ->
          ignore (new_branch (c.name ^ ".b"));
          ignore (new_branch (c.name ^ ".c"))
      end
      | C.Resistor _ | C.Capacitor _ -> ())
    netlist.N.components;
  let dim = n_nodes + !n_branch in
  let a = Array.make_matrix dim dim 0. in
  let rhs = Array.make dim 0. in
  let idx node = if node = ground then None else Some (Hashtbl.find node_index node) in
  let addm row col v =
    match (row, col) with
    | Some r, Some c -> a.(r).(c) <- a.(r).(c) +. v
    | None, _ | _, None -> ()
  in
  let add_branch_row row col v =
    match col with Some c -> a.(row).(c) <- a.(row).(c) +. v | None -> ()
  in
  let add_kcl node branch v =
    match node with Some r -> a.(r).(branch) <- a.(r).(branch) +. v | None -> ()
  in
  let branch key = List.assoc key !branches in
  let nominal c param = Interval.centroid (C.nominal_parameter c param) in
  List.iter
    (fun (c : C.t) ->
      let node t = idx (C.node_of c t) in
      match c.kind with
      | C.Resistor _ ->
        let g = 1. /. nominal c "R" in
        let p = node "p" and n = node "n" in
        addm p p g;
        addm n n g;
        addm p n (-.g);
        addm n p (-.g)
      | C.Capacitor _ ->
        (* open at DC; a negligible leak keeps the matrix regular when a
           node connects through capacitors only *)
        let g = 1e-12 in
        let p = node "p" and n = node "n" in
        addm p p g;
        addm n n g;
        addm p n (-.g);
        addm n p (-.g)
      | C.Inductor _ ->
        let j = branch c.name in
        let p = node "p" and n = node "n" in
        add_kcl p j 1.;
        add_kcl n j (-1.);
        add_branch_row j p 1.;
        add_branch_row j n (-1.)
      | C.Voltage_source _ ->
        let j = branch c.name in
        let p = node "p" and n = node "n" in
        add_kcl p j 1.;
        add_kcl n j (-1.);
        add_branch_row j p 1.;
        add_branch_row j n (-1.);
        rhs.(j) <- nominal c "V"
      | C.Diode _ ->
        if List.assoc c.name state.diode = Conducting then begin
          let j = branch c.name in
          let p = node "p" and n = node "n" in
          add_kcl p j 1.;
          add_kcl n j (-1.);
          add_branch_row j p 1.;
          add_branch_row j n (-1.);
          rhs.(j) <- nominal c "Vf"
        end
      | C.Gain_block _ ->
        let j = branch c.name in
        let input = node "in" and output = node "out" in
        add_kcl output j 1.;
        add_branch_row j output 1.;
        add_branch_row j input (-.nominal c "gain")
      | C.Bjt _ -> begin
        let b = node "b" and col = node "c" and e = node "e" in
        let beta = nominal c "beta" and vbe = nominal c "vbe" in
        match List.assoc c.name state.bjt with
        | Cutoff -> ()
        | Active ->
          let jb = branch (c.name ^ ".b") in
          add_kcl b jb 1.;
          add_kcl e jb (-1.);
          add_branch_row jb b 1.;
          add_branch_row jb e (-1.);
          rhs.(jb) <- vbe;
          (* collector source β·ib flowing c → e *)
          add_kcl col jb beta;
          add_kcl e jb (-.beta)
        | Saturated ->
          let jb = branch (c.name ^ ".b") in
          add_kcl b jb 1.;
          add_kcl e jb (-1.);
          add_branch_row jb b 1.;
          add_branch_row jb e (-1.);
          a.(jb).(jb) <- a.(jb).(jb) -. r_sat;
          rhs.(jb) <- vbe;
          let jc = branch (c.name ^ ".c") in
          add_kcl col jc 1.;
          add_kcl e jc (-1.);
          add_branch_row jc col 1.;
          add_branch_row jc e (-1.);
          a.(jc).(jc) <- a.(jc).(jc) -. r_sat;
          rhs.(jc) <- vce_sat
      end)
    netlist.N.components;
  let x = solve_system ?sweep state a rhs in
  let v node = match idx node with Some i -> x.(i) | None -> 0. in
  (x, v, branch)

let check_and_update netlist state x v branch =
  let ok = ref true in
  let nominal c param = Interval.centroid (C.nominal_parameter c param) in
  let bjt =
    List.map
      (fun (name, region) ->
        let c = N.find netlist name in
        let vb = v (C.node_of c "b")
        and vc = v (C.node_of c "c")
        and ve = v (C.node_of c "e") in
        let vbe = nominal c "vbe" and beta = nominal c "beta" in
        let region' =
          match region with
          | Active ->
            let ib = x.(branch (name ^ ".b")) in
            if ib < -.tolerance then Cutoff
            else if vc -. ve < vce_sat -. 1e-6 then Saturated
            else Active
          | Cutoff -> if vb -. ve > vbe +. 1e-6 then Active else Cutoff
          | Saturated ->
            let ib = x.(branch (name ^ ".b")) in
            let ic = x.(branch (name ^ ".c")) in
            if ib < -.tolerance then Cutoff
            else if ic > (beta *. ib) +. tolerance then Active
            else Saturated
        in
        if region' <> region then ok := false;
        (name, region'))
      state.bjt
  in
  let diode =
    List.map
      (fun (name, mode) ->
        let c = N.find netlist name in
        let mode' =
          match mode with
          | Conducting ->
            if x.(branch name) < -.tolerance then Blocked else Conducting
          | Blocked ->
            let dv = v (C.node_of c "p") -. v (C.node_of c "n") in
            if dv > nominal c "Vf" +. 1e-6 then Conducting else Blocked
        in
        if mode' <> mode then ok := false;
        (name, mode'))
      state.diode
  in
  (!ok, { bjt; diode })

(* The solver is the inner loop of the fault-model fit sweep, so it
   carries an always-on solve counter and latency histogram plus a trace
   span; with tracing disabled the overhead is two clock reads against a
   full matrix factorisation. *)
let solves_total =
  Flames_obs.Metrics.counter "flames_mna_solves_total"
    ~help:"DC operating-point solves (piecewise-linear MNA)"

let solve_seconds =
  Flames_obs.Metrics.histogram "flames_mna_solve_seconds"
    ~help:"Latency of one DC operating-point solve"

let solve ?sweep netlist =
  Flames_obs.Metrics.incr solves_total;
  Flames_obs.Trace.with_span ~record:solve_seconds "mna.solve" @@ fun () ->
  let rec iterate state seen count =
    if count > 64 then
      raise (No_convergence "device-region iteration did not settle");
    let x, v, branch = solve_linear ?sweep netlist state in
    let ok, state' = check_and_update netlist state x v branch in
    if ok then (state, x, v, branch)
    else if List.mem state' seen then
      raise (No_convergence "device-region iteration cycled")
    else iterate state' (state :: seen) (count + 1)
  in
  let state, x, v, branch = iterate (initial_state netlist) [] 0 in
  let voltages =
    List.map (fun n -> (n, v n)) (N.nodes netlist)
  in
  let nominal c param = Interval.centroid (C.nominal_parameter c param) in
  let currents =
    List.concat_map
      (fun (c : C.t) ->
        match c.kind with
        | C.Resistor _ ->
          let i =
            (v (C.node_of c "p") -. v (C.node_of c "n")) /. nominal c "R"
          in
          [ (c.name, i) ]
        | C.Capacitor _ -> [ (c.name, 0.) ]
        | C.Inductor _ -> [ (c.name, x.(branch c.name)) ]
        | C.Voltage_source _ -> [ (c.name, x.(branch c.name)) ]
        | C.Gain_block _ -> [ (c.name, x.(branch c.name)) ]
        | C.Diode _ ->
          let i =
            match List.assoc c.name state.diode with
            | Conducting -> x.(branch c.name)
            | Blocked -> 0.
          in
          [ (c.name, i) ]
        | C.Bjt _ -> begin
          match List.assoc c.name state.bjt with
          | Cutoff -> [ (c.name ^ ".b", 0.); (c.name ^ ".c", 0.) ]
          | Active ->
            let ib = x.(branch (c.name ^ ".b")) in
            [ (c.name ^ ".b", ib); (c.name ^ ".c", nominal c "beta" *. ib) ]
          | Saturated ->
            [
              (c.name ^ ".b", x.(branch (c.name ^ ".b")));
              (c.name ^ ".c", x.(branch (c.name ^ ".c")));
            ]
        end)
      netlist.N.components
  in
  { voltages; currents; regions = state.bjt }

let voltage sol node = List.assoc node sol.voltages
let current sol key = List.assoc key sol.currents
let region sol name = List.assoc name sol.regions

let pp_region ppf = function
  | Active -> Format.pp_print_string ppf "active"
  | Cutoff -> Format.pp_print_string ppf "cutoff"
  | Saturated -> Format.pp_print_string ppf "saturated"

let pp ppf sol =
  List.iter
    (fun (n, v) -> Format.fprintf ppf "V(%s) = %.4g@." n v)
    sol.voltages;
  List.iter
    (fun (c, i) -> Format.fprintf ppf "I(%s) = %.4g@." c i)
    sol.currents;
  List.iter
    (fun (t, r) -> Format.fprintf ppf "%s: %a@." t pp_region r)
    sol.regions
