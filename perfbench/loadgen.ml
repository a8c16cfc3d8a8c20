(* Open-loop HTTP/1.1 load generator.

   One thread drives a few keep-alive connections through select(2),
   sending requests round-robin across them. Every request has a due
   time; it is written the moment it falls due,
   whether or not earlier requests on the same connection have been
   answered (requests are pipelined), so a slow server cannot slow the
   offered load down. Latency is measured from the due time to the last
   byte of the response, which charges a stall to every request queued
   behind it. The time the generator itself ran late — actual write
   completion minus due time — is recorded per request as send lag, so a
   stalled client can be told apart from a slow server.

   Responses are stored raw; decoding and checking them happens after
   the phase, off the clock. *)

type outcome = {
  mutable sent : float;  (** write completion time; [nan] if never sent *)
  mutable finished : float;  (** last response byte; [nan] if unanswered *)
  mutable status : int;  (** 0 when unanswered or the connection failed *)
  mutable body : string;
}

let wire_request ~path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

(* The server does not set TCP_NODELAY, so a response written while the
   previous one on its connection is still unacknowledged waits in
   Nagle's algorithm for the client's delayed ACK, which a pipelining
   client sends with its next request. Once one response has waited,
   the next ones do too: latency locks onto the per-connection request
   interval, and runs flip between that state and the unstalled one. A
   [quickack] client ACKs every read at once (Linux clears the flag
   after some receives, so it is re-armed after each), so the latency it
   sees is the server's, not that timer's; a default client leaves
   delayed ACKs on. *)
external set_quickack : Unix.file_descr -> unit = "perfbench_quickack" [@@noalloc]

let connect ~quickack port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  if quickack then set_quickack fd;
  fd

type conn = {
  fd : Unix.file_descr;
  quickack : bool;
  pending : (int * string) Queue.t;  (** requests not yet fully written *)
  mutable woff : int;  (** bytes of the head of [pending] already written *)
  inflight : int Queue.t;  (** written, awaiting response, in order *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable dead : bool;
}

(* Offset of the first "\r\n\r\n" in [b.(0 .. len)], or -1. *)
let head_end b len =
  let rec go i =
    if i + 4 > len then -1
    else if
      Bytes.unsafe_get b i = '\r'
      && Bytes.unsafe_get b (i + 1) = '\n'
      && Bytes.unsafe_get b (i + 2) = '\r'
      && Bytes.unsafe_get b (i + 3) = '\n'
    then i
    else go (i + 1)
  in
  go 0

let content_length head =
  let lower = String.lowercase_ascii head in
  let key = "\ncontent-length:" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length lower then None
    else if String.sub lower i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = try String.index_from lower i '\r' with Not_found -> String.length lower in
      int_of_string_opt (String.trim (String.sub lower i (j - i)))

(* Pop every complete response off the front of the read buffer. *)
let parse_responses c outcomes now =
  let rec go () =
    match head_end c.rbuf c.rlen with
    | -1 -> ()
    | h ->
        let head = Bytes.sub_string c.rbuf 0 h in
        let clen = Option.value ~default:0 (content_length head) in
        let total = h + 4 + clen in
        if c.rlen >= total then begin
          let status =
            if String.length head >= 12 then
              Option.value ~default:0 (int_of_string_opt (String.sub head 9 3))
            else 0
          in
          let body = Bytes.sub_string c.rbuf (h + 4) clen in
          Bytes.blit c.rbuf total c.rbuf 0 (c.rlen - total);
          c.rlen <- c.rlen - total;
          (match Queue.take_opt c.inflight with
          | Some i ->
              let o = outcomes.(i) in
              o.finished <- now;
              o.status <- status;
              o.body <- body
          | None -> c.dead <- true);
          go ()
        end
  in
  go ()

let read_conn c outcomes now =
  if Bytes.length c.rbuf - c.rlen < 65536 then begin
    let nb = Bytes.create (2 * (Bytes.length c.rbuf + 65536)) in
    Bytes.blit c.rbuf 0 nb 0 c.rlen;
    c.rbuf <- nb
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> c.dead <- true
  | n ->
      if c.quickack then set_quickack c.fd;
      c.rlen <- c.rlen + n;
      parse_responses c outcomes now
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.dead <- true

let rec write_conn c outcomes clock =
  match Queue.peek_opt c.pending with
  | None -> ()
  | Some (i, s) -> (
      let len = String.length s - c.woff in
      match Unix.write_substring c.fd s c.woff len with
      | n when n = len ->
          ignore (Queue.take c.pending);
          c.woff <- 0;
          outcomes.(i).sent <- clock ();
          Queue.add i c.inflight;
          write_conn c outcomes clock
      | n -> c.woff <- c.woff + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.dead <- true)

(* [run ~port ~conns ~start ~dues ~wires ~drain] sends request [i]
   (pre-serialized in [wires.(i)]) at absolute time [start +. dues.(i)]
   on connection [i mod conns], then waits at most [drain] seconds past
   the last due time for outstanding responses. Connections are opened
   for the phase and closed after it, so a late response can never be
   attributed to the next phase's request. They ACK every read at once
   unless [quickack] is false. *)
let run ?(quickack = true) ~port ~conns ~start ~dues ~wires ~drain () =
  let clock = Unix.gettimeofday in
  let n = Array.length wires in
  let outcomes =
    Array.init n (fun _ -> { sent = nan; finished = nan; status = 0; body = "" })
  in
  let cs =
    Array.init conns (fun _ ->
        {
          fd = connect ~quickack port;
          quickack;
          pending = Queue.create ();
          woff = 0;
          inflight = Queue.create ();
          rbuf = Bytes.create 65536;
          rlen = 0;
          dead = false;
        })
  in
  let deadline = start +. (if n = 0 then 0.0 else dues.(n - 1)) +. drain in
  let next = ref 0 in
  let busy () =
    !next < n
    || Array.exists
         (fun c ->
           (not c.dead)
           && not (Queue.is_empty c.pending && Queue.is_empty c.inflight))
         cs
  in
  let continue = ref true in
  while !continue do
    let now = clock () in
    while !next < n && start +. dues.(!next) <= now do
      let c = cs.(!next mod conns) in
      if not c.dead then begin
        Queue.add (!next, wires.(!next)) c.pending;
        if Queue.length c.pending = 1 then write_conn c outcomes clock
      end;
      incr next
    done;
    if (not (busy ())) || now > deadline then continue := false
    else begin
      let wait =
        if !next < n then Float.max 0.0 (start +. dues.(!next) -. now)
        else deadline -. now
      in
      let live = List.filter (fun c -> not c.dead) (Array.to_list cs) in
      let rfds = List.map (fun c -> c.fd) live in
      let wfds =
        List.filter_map
          (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
          live
      in
      match Unix.select rfds wfds [] (Float.min wait 0.05) with
      | r, w, _ ->
          let now = clock () in
          List.iter
            (fun c ->
              if List.memq c.fd w then write_conn c outcomes clock;
              if List.memq c.fd r then read_conn c outcomes now)
            live
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  outcomes

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(Stdlib.min (n - 1)
              (Stdlib.max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a = percentile (sorted a) 0.5

(* Mean of the middle half of [a]: the quarter of values at each end is
   left out. *)
let interquartile_mean a =
  let s = sorted a in
  let cut = Array.length s / 4 in
  let mid = Array.sub s cut (Array.length s - (2 * cut)) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)

(* Consecutive slices of at least this many requests, and at most ten
   of them. *)
let window_min = 100
let windows_of n = Stdlib.max 1 (Stdlib.min 10 (n / window_min))

(* Send-lag p99 above which a slice is one where the host stalled the
   generator itself. *)
let quiet_lag = 1e-3

(* Percentile [p] of a phase's latencies [lat] (in send order), pooled
   over the requests of every slice whose send-lag p99 is at most
   [quiet_lag], as long as at least half the slices are: a slice in which
   the client ran late would read a stalled client as a slow server.
   Otherwise over every request. *)
let lag_filtered ~p ~lags lat =
  let n = Array.length lat in
  let k = windows_of n in
  let slice a w = Array.sub a (w * n / k) (((w + 1) * n / k) - (w * n / k)) in
  let quiet =
    List.filter
      (fun w -> percentile (sorted (slice lags w)) 0.99 <= quiet_lag)
      (List.init k Fun.id)
  in
  let kept =
    if 2 * List.length quiet >= k then Array.concat (List.map (slice lat) quiet) else lat
  in
  percentile (sorted kept) p

(* One phase's summary: latency from due time over answered requests,
   failures (non-200 or unanswered) and the generator's send lag. *)
type phase = {
  attempted : int;
  succeeded : int;
  failed : int;
  lat_sorted : float array;  (** seconds, answered requests *)
  p50 : float;  (** {!lag_filtered} p50 of the phase *)
  p99 : float;  (** {!lag_filtered} p99 of the phase *)
  last_p50 : float;  (** p50 of the last fifth: a growing backlog shows here *)
  lag_p50 : float;
  lag_p99 : float;
}

let summarize ~start ~dues outcomes =
  let n = Array.length outcomes in
  let lats = Array.make n nan and lags = Array.make n nan in
  Array.iteri
    (fun i o ->
      let due = start +. dues.(i) in
      if Float.is_finite o.sent then lags.(i) <- o.sent -. due;
      if o.status = 200 then lats.(i) <- o.finished -. due)
    outcomes;
  (* Answered requests, with the send lag of each, in send order. *)
  let answered = List.filter (fun i -> Float.is_finite lats.(i)) (List.init n Fun.id) in
  let lat = Array.of_list (List.map (fun i -> lats.(i)) answered) in
  let lat_lags = Array.of_list (List.map (fun i -> lags.(i)) answered) in
  let from = 4 * Array.length lat / 5 in
  let last_fifth = Array.sub lat from (Array.length lat - from) in
  let lag = sorted (Array.of_list (List.filter Float.is_finite (Array.to_list lags))) in
  let lat_sorted = sorted lat in
  let succeeded = Array.length lat_sorted in
  {
    attempted = n;
    succeeded;
    failed = n - succeeded;
    lat_sorted;
    p50 = lag_filtered ~p:0.5 ~lags:lat_lags lat;
    p99 = lag_filtered ~p:0.99 ~lags:lat_lags lat;
    last_p50 = median last_fifth;
    lag_p50 = percentile lag 0.5;
    lag_p99 = percentile lag 0.99;
  }

(* Blocking one-shot GET on a fresh connection (health and metrics). *)
let get ~port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Prom_server.Http.write_request fd ~meth:"GET" ~path "";
      match Prom_server.Http.read_response (Prom_server.Http.reader fd) with
      | Ok r -> Some r
      | Error _ -> None)
