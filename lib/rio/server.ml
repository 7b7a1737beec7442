(** The socket front-end over a serving {!Pool} (DESIGN.md §6.10): a
    single-threaded [Unix.select] loop that accepts connections, frames
    requests off the wire ({!Wire}), admits them through
    {!Pool.try_submit} — turning every admission reject into a typed
    response instead of unbounded queueing — and streams results back
    as the pool completes them.

    The loop itself does no simulation work: worker domains execute
    requests, so one acceptor thread keeps ordering and connection
    state trivial while the pool provides the parallelism.  Responses
    are routed by a server-assigned request id; a client that
    disconnects with requests in flight simply has its results
    dropped. *)

type addr =
  | Unix_addr of string        (** unix:PATH *)
  | Tcp_addr of string * int   (** tcp:HOST:PORT *)

let addr_of_string (s : string) : (addr, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_addr rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp_addr (host, p))
              | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
      | _ -> Error (Printf.sprintf "bad address scheme %S" scheme))

let addr_to_string = function
  | Unix_addr p -> "unix:" ^ p
  | Tcp_addr (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of = function
  | Unix_addr p -> Unix.ADDR_UNIX p
  | Tcp_addr (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith ("Server: cannot resolve host " ^ host))
      in
      Unix.ADDR_INET (ip, port)

(** Create, bind, and listen.  A stale Unix-domain socket file from a
    previous run is unlinked first. *)
let listen (a : addr) : Unix.file_descr =
  let domain =
    match a with Unix_addr _ -> Unix.PF_UNIX | Tcp_addr _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match a with
  | Unix_addr p -> if Sys.file_exists p then Unix.unlink p
  | Tcp_addr _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of a);
  Unix.listen fd 64;
  fd

(** Connect a client socket (blocking). *)
let connect (a : addr) : Unix.file_descr =
  let domain =
    match a with Unix_addr _ -> Unix.PF_UNIX | Tcp_addr _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd (sockaddr_of a);
  fd

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-connection receive buffer: select says "readable", we pull one
   chunk, and whole frames are peeled off as they complete — a client
   that dribbles a frame across packets never blocks the loop. *)
type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  c_cid : int;  (* connection id, keys the routing table *)
}

(* One read chunk per domain: a fresh 64KB chunk per read would be a
   major-heap block each time, and concurrent server loops (one per
   domain) must never share scratch state.  Within a domain, [pull]'s
   caller consumes the bytes before the next read. *)
let chunk_key = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Append available bytes; false when the peer closed. *)
let pull (c : conn) : bool =
  let chunk = Domain.DLS.get chunk_key in
  match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* Peel complete frames off the connection buffer. *)
let frames (c : conn) : string list =
  let s = Buffer.contents c.c_buf in
  let total = String.length s in
  let pos = ref 0 in
  let out = ref [] in
  let continue = ref true in
  while !continue do
    if total - !pos < 4 then continue := false
    else begin
      let len = Int32.to_int (String.get_int32_le s !pos) in
      if len < 0 || len > Wire.max_frame then failwith "Server: bad frame length"
      else if total - !pos - 4 < len then continue := false
      else begin
        out := String.sub s (!pos + 4) len :: !out;
        pos := !pos + 4 + len
      end
    end
  done;
  if !pos > 0 then begin
    let rest = String.sub s !pos (total - !pos) in
    Buffer.clear c.c_buf;
    Buffer.add_string c.c_buf rest
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Serving loop                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable sv_accepted : int;    (** connections accepted *)
  mutable sv_requests : int;    (** run frames admitted to the pool *)
  mutable sv_rejects : int;     (** run frames answered with a typed reject *)
  mutable sv_responses : int;   (** responses written *)
  mutable sv_dropped : int;     (** results whose connection had gone away *)
}

let reject_status : Pool.reject -> Wire.status = function
  | Pool.Unknown_key _ -> Wire.St_unknown_key
  | Pool.Quarantined _ -> Wire.St_quarantined
  | Pool.Overloaded _ -> Wire.St_shed
  | Pool.Pool_stopping -> Wire.St_stopping

(** Run the accept/serve loop until a client sends [Quit] (and every
    admitted request has been answered).  [tick] is the poll interval:
    the loop wakes at least this often to flush completed results even
    when no socket is readable. *)
let run ?(tick = 0.01) (pool : Pool.t) (listeners : Unix.file_descr list) :
    stats =
  let st =
    { sv_accepted = 0; sv_requests = 0; sv_rejects = 0; sv_responses = 0;
      sv_dropped = 0 }
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  (* server request id -> (connection id, client's correlation id) *)
  let routes : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let next_cid = ref 0 in
  let next_rid = ref 0 in
  let quitting = ref false in
  let send_to (c : conn) (r : Wire.response) : unit =
    try
      Wire.write_frame c.c_fd (Wire.encode_response r);
      st.sv_responses <- st.sv_responses + 1
    with Wire.Closed | Unix.Unix_error _ ->
      (* writer saw the close first; the reader side will reap it *)
      ()
  in
  let close_conn (c : conn) : unit =
    Hashtbl.remove conns c.c_cid;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  in
  let handle_msg (c : conn) (m : Wire.client_msg) : unit =
    match m with
    | Wire.Quit -> quitting := true
    | Wire.Run { c_id; c_key; c_seed; c_input; c_expect } -> (
        let rid = !next_rid in
        incr next_rid;
        let req =
          {
            Pool.req_id = rid;
            req_key = c_key;
            req_seed = c_seed;
            req_input = c_input;
            req_expect = c_expect;
          }
        in
        match Pool.try_submit pool req with
        | Ok () ->
            st.sv_requests <- st.sv_requests + 1;
            Hashtbl.replace routes rid (c.c_cid, c_id)
        | Error e ->
            st.sv_rejects <- st.sv_rejects + 1;
            send_to c
              {
                Wire.r_id = c_id;
                r_status = reject_status e;
                r_warm = false;
                r_cycles = 0;
                r_output = [];
              })
  in
  let flush_results () =
    List.iter
      (fun (res : Pool.result) ->
        match Hashtbl.find_opt routes res.Pool.res_id with
        | None -> st.sv_dropped <- st.sv_dropped + 1
        | Some (cid, client_id) -> (
            Hashtbl.remove routes res.Pool.res_id;
            match Hashtbl.find_opt conns cid with
            | None -> st.sv_dropped <- st.sv_dropped + 1
            | Some c ->
                send_to c
                  {
                    Wire.r_id = client_id;
                    r_status =
                      (if res.Pool.res_ok then Wire.St_ok else Wire.St_failed);
                    r_warm = res.Pool.res_warm;
                    r_cycles = res.Pool.res_cycles;
                    r_output = res.Pool.res_output;
                  }))
      (Pool.take_results pool)
  in
  let finished () = !quitting && Hashtbl.length routes = 0 in
  while not (finished ()) do
    let conn_fds = Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) conns [] in
    let watch = if !quitting then conn_fds else listeners @ conn_fds in
    let readable, _, _ =
      try Unix.select watch [] [] tick
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if List.mem fd listeners then begin
          let cfd, _ = Unix.accept fd in
          let cid = !next_cid in
          incr next_cid;
          st.sv_accepted <- st.sv_accepted + 1;
          Hashtbl.replace conns cid
            { c_fd = cfd; c_buf = Buffer.create 256; c_cid = cid }
        end
        else
          match
            Hashtbl.fold
              (fun _ c acc -> if c.c_fd = fd then Some c else acc)
              conns None
          with
          | None -> ()
          | Some c -> (
              match pull c with
              | false -> close_conn c
              | true -> (
                  try
                    List.iter
                      (fun payload ->
                        handle_msg c (Wire.decode_client_msg payload))
                      (frames c)
                  with Failure _ ->
                    (* malformed frame: drop the connection, keep serving *)
                    close_conn c)
              | exception Unix.Unix_error _ -> close_conn c))
      readable;
    flush_results ()
  done;
  (* answer anything that raced the quit *)
  flush_results ();
  Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) conns;
  st

(* ------------------------------------------------------------------ *)
(* Client convenience                                                 *)
(* ------------------------------------------------------------------ *)

(** Send [reqs] over one connection and collect every response
    (admission rejects included), in arrival order.  Ids are assigned
    0..n-1 in list order. *)
let client_run (fd : Unix.file_descr) reqs : Wire.response list =
  List.iteri
    (fun i (key, seed, input, expect) ->
      Wire.send_msg fd
        (Wire.Run
           { c_id = i; c_key = key; c_seed = seed; c_input = input;
             c_expect = expect }))
    reqs;
  List.init (List.length reqs) (fun _ -> Wire.recv_response fd)
