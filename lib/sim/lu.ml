(* LU factors that replay [Linalg.solve_opt] exactly.

   The factorisation records the full elimination trace — pivot-row
   swaps in order, then the in-place L/U matrix whose strict lower part
   holds the multipliers — so that [resolve] applies to a fresh
   right-hand side the very same float operations, in the very same
   order, that [Linalg.solve_opt] would have applied had it been given
   the matrix and that vector together.  The [f <> 0.] skip is kept:
   a zero multiplier performs no subtraction on either side there, so
   it performs none here.  Hence [resolve (factor a) b] is bit-identical
   to [Linalg.solve_opt a b], and reusing factors across a sweep of
   right-hand sides cannot move a single diagnosis bit. *)

type t = {
  lu : float array array;
      (* upper triangle + diagonal: U; strict lower: multipliers *)
  swaps : (int * int) array;  (* (col, pivot) row exchanges, in order *)
  n : int;
}

let factor a =
  let n = Array.length a in
  if n > 0 && Array.length a.(0) <> n then
    invalid_arg "Lu.factor: dimension mismatch";
  let inf_norm =
    Array.fold_left
      (fun acc row ->
        Float.max acc (Array.fold_left (fun s x -> s +. Float.abs x) 0. row))
      0. a
  in
  let tiny = 1e-12 *. Float.max 1.0 inf_norm in
  let exception Stop in
  let m = Array.map Array.copy a in
  let swaps = ref [] in
  try
    for col = 0 to n - 1 do
      let pivot = ref col in
      for row = col + 1 to n - 1 do
        if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then
          pivot := row
      done;
      if Float.abs m.(!pivot).(col) < tiny then raise Stop;
      if !pivot <> col then begin
        let tmp = m.(col) in
        m.(col) <- m.(!pivot);
        m.(!pivot) <- tmp;
        swaps := (col, !pivot) :: !swaps
      end;
      for row = col + 1 to n - 1 do
        let f = m.(row).(col) /. m.(col).(col) in
        if f <> 0. then
          for k = col + 1 to n - 1 do
            m.(row).(k) <- m.(row).(k) -. (f *. m.(col).(k))
          done;
        (* the column entry below the pivot is dead for U; store the
           multiplier there (0. encodes the skip) *)
        m.(row).(col) <- f
      done
    done;
    Ok { lu = m; swaps = Array.of_list (List.rev !swaps); n }
  with Stop -> Error `Singular

let resolve t b =
  if Array.length b <> t.n then invalid_arg "Lu.resolve: dimension mismatch";
  let v = Array.copy b in
  (* All row interchanges first, then the multipliers in final
     positions.  This is bit-for-bit the elimination's interleaved
     trace: a swap of two not-yet-eliminated rows commutes exactly with
     earlier column updates because the factorisation swapped the
     stored multipliers along with the rows. *)
  Array.iter
    (fun (col, p) ->
      let tb = v.(col) in
      v.(col) <- v.(p);
      v.(p) <- tb)
    t.swaps;
  for col = 0 to t.n - 1 do
    for row = col + 1 to t.n - 1 do
      let f = t.lu.(row).(col) in
      if f <> 0. then v.(row) <- v.(row) -. (f *. v.(col))
    done
  done;
  let x = Array.make t.n 0. in
  for row = t.n - 1 downto 0 do
    let s = ref v.(row) in
    for k = row + 1 to t.n - 1 do
      s := !s -. (t.lu.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. t.lu.(row).(row)
  done;
  x
