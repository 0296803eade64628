(* Answer checks.  Every reply is compared with an in-process reference
   computed from the same request bytes: a from-scratch
   [Diagnose.run].  References are memoised per distinct input, so the
   workloads that repeat inputs pay for each once. *)

module Oracle = Flames_check.Oracle

type reference = {
  answer : string;  (** the reply fields, as the service renders them *)
  bits : string;  (** [Oracle.result_fingerprint]: every float, hex-exact *)
  next : string Lazy.t;  (** sessions: the recommended next test *)
}

let references : (string, reference) Hashtbl.t = Hashtbl.create 64

let memoised key f =
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
    let r = f () in
    Hashtbl.replace references key r;
    r

let of_result r ~next =
  { answer = Work.answer_of_result r; bits = Oracle.result_fingerprint r; next }

let reference body =
  memoised body (fun () ->
      of_result (Work.reference_result (Work.decode body)) ~next:(lazy ""))

let session_reference survivors =
  memoised (Work.state_key survivors) (fun () ->
      let r = Work.reference_result (Work.session_input survivors) in
      of_result r ~next:(lazy (Work.reference_next survivors r)))

(* The first wrong reply of a run, for the report. *)
let first = ref None
let first_failure () = !first

(* Record the first failure: what was sent, the status, and the hex
   fingerprints of the expected and the received answer. *)
let judge ok what ~expected (reply : Work.reply) =
  if (not ok) && !first = None then
    first :=
      Some
        (Printf.sprintf "%s: status %d, answer %s, expected %s" what reply.Work.status
           (Work.fingerprint (Work.answer_of_reply reply.Work.body))
           (Work.fingerprint expected));
  ok

let diagnose body (reply : Work.reply) =
  let expected = (reference body).answer in
  judge
    (reply.Work.status = 200 && Work.answer_of_reply reply.Work.body = expected)
    ("/diagnose " ^ String.sub body 0 (min 60 (String.length body)))
    ~expected reply

(* A round's replies: the mutation, diagnoses and (measure rounds) next.
   Diagnoses must equal a from-scratch run over the surviving readings,
   next the recommendation derived from that run. *)
let round survivors (replies : Work.reply list) =
  let ref_ = session_reference survivors in
  let ok (r : Work.reply) = r.Work.status = 200 in
  let what = "round over " ^ Work.state_key survivors in
  match replies with
  | [ m; diag ] ->
    judge
      (ok m && ok diag && Work.answer_of_reply diag.Work.body = ref_.answer)
      what ~expected:ref_.answer diag
  | [ m; diag; next ] ->
    judge
      (ok m && ok diag && ok next
      && Work.answer_of_reply diag.Work.body = ref_.answer
      && Work.next_of_reply next.Work.body = Lazy.force ref_.next)
      what ~expected:ref_.answer diag
  | _ -> false
