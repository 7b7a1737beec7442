(** The simulated machine: memory, hardware threads, predictor state,
    cycle counter, and I/O ports.

    The machine is the substrate "hardware + OS" that both native
    execution and the DynamoRIO runtime drive.  It knows nothing about
    code caches; the RIO layer reserves a memory region for its cache
    and registers a {e trap base} — control transfers at or above that
    address stop the interpreter and hand control to the runtime
    (modelling exit stubs and lookup routines). *)

open Isa

(* One line of the decoded-instruction cache.  Slots are mutated in
   place on refill so steady-state fetch allocates nothing. *)
type islot = {
  mutable is_pc : int;               (* -1 = never filled *)
  mutable is_gen : int;              (* page generation when filled *)
  mutable is_len : int;
  mutable is_cost : int;             (* static (operand-shape) cycles *)
  mutable is_exec : exec;
}

(* An instruction compiled once, when its slot is filled: operand
   shapes, register numbers, immediates and the fall-through pc are
   resolved, so a step only calls it.  It captures no slot, so refilling
   or dropping a slot releases it.  Stops (halt, trap, fault...) leave
   it by exception; see {!Interp}. *)
and exec = t -> thread -> unit

and thread = {
  tid : int;
  regs : int array;                  (* 8 GPRs, unsigned 32-bit values *)
  fregs : float array;               (* 8 FP regs *)
  mutable eflags : Eflags.t;
  mutable pc : int;
  mutable alive : bool;
  mutable pending_signals : int list;  (* handler addresses, FIFO *)
}

and t = {
  mem : Memory.t;
  cost : Cost.t;
  pred : Cost.predictor;
  mutable cycles : int;
  mutable insns_retired : int;
  mutable output : int list;         (* reversed *)
  mutable input : int list;
  mutable threads : thread list;     (* in tid order *)
  mutable next_tid : int;
  mutable trap_base : int;           (* addresses >= trap_base trap to the runtime *)
  (* decoded-instruction cache: models the hardware fetch/decode path.
     Direct-mapped on the low pc bits.  Invalidating less than a page
     drops exactly the slots whose decode overlaps the bytes; larger
     ranges bump per-4KB-page generations, O(pages) instead of O(bytes).
     Hit/miss behaviour is purely a host-time concern — decode is free
     in the cost model. *)
  icache : islot array;
  icache_gens : int array;           (* one generation per 4KB page *)
  emu_slot : islot;                  (* scratch slot for uncached decode *)
  (* timed signal queue: (deliver_at_cycle, tid, handler_addr) *)
  mutable signal_queue : (int * int * int) list;
  (* when true the runtime intercepts signal delivery (RIO active) *)
  mutable intercept_signals : bool;
  (* when true, writes to executed code stop execution at the next
     control transfer so the runtime can flush stale fragments *)
  mutable smc_trap : bool;
  mutable pending_smc : (int * int) list;
}

let icache_bits = 15
let icache_mask = (1 lsl icache_bits) - 1

(* the executor of a slot that holds none; never runs, because such a
   slot has is_pc = -1 and never hits *)
let no_exec : exec = fun _ _ -> invalid_arg "Machine: empty icache slot"

let fresh_islot () =
  { is_pc = -1; is_gen = 0; is_len = 0; is_cost = 0; is_exec = no_exec }

let drop_islot s =
  s.is_pc <- -1;
  s.is_exec <- no_exec

(* All lines start out pointing at one shared never-filled slot
   (is_pc = -1, so it can never hit); a line gets its own record on
   first refill.  Creating a machine then costs one pointer fill, not
   32K record allocations. *)
let dummy_islot = fresh_islot ()

let create ?(family = Cost.Pentium4) ?(mem_size = 1 lsl 26) () =
  {
    mem = Memory.create mem_size;
    cost = Cost.default_params family;
    pred = Cost.create_predictor ();
    cycles = 0;
    insns_retired = 0;
    output = [];
    input = [];
    threads = [];
    next_tid = 0;
    trap_base = max_int;
    icache = Array.make (1 lsl icache_bits) dummy_islot;
    icache_gens = Array.make ((mem_size lsr Memory.page_bits) + 1) 0;
    emu_slot = fresh_islot ();
    signal_queue = [];
    intercept_signals = false;
    smc_trap = false;
    pending_smc = [];
  }

let mem m = m.mem
let cost m = m.cost
let cycles m = m.cycles
let add_cycles m n = m.cycles <- m.cycles + n
let output m = List.rev m.output
let set_input m vs = m.input <- vs
let push_output m v = m.output <- v :: m.output

let pop_input m =
  match m.input with
  | [] -> 0
  | v :: rest ->
      m.input <- rest;
      v

(* ------------------------------------------------------------------ *)
(* Threads                                                            *)
(* ------------------------------------------------------------------ *)

let add_thread m ~entry ~stack_top =
  let t =
    {
      tid = m.next_tid;
      regs = Array.make 8 0;
      fregs = Array.make 8 0.0;
      eflags = Eflags.empty;
      pc = entry;
      alive = true;
      pending_signals = [];
    }
  in
  t.regs.(Reg.number Reg.Esp) <- stack_top;
  m.next_tid <- m.next_tid + 1;
  m.threads <- m.threads @ [ t ];
  t

let live_threads m = List.filter (fun t -> t.alive) m.threads
let main_thread m = List.hd m.threads

let get_reg (t : thread) (r : Reg.t) = t.regs.(Reg.number r)
let set_reg (t : thread) (r : Reg.t) v = t.regs.(Reg.number r) <- v land Arith.mask32
let get_freg (t : thread) (f : Reg.F.t) = t.fregs.(Reg.F.number f)
let set_freg (t : thread) (f : Reg.F.t) v = t.fregs.(Reg.F.number f) <- v

(* ------------------------------------------------------------------ *)
(* Signals                                                            *)
(* ------------------------------------------------------------------ *)

(** Schedule an asynchronous signal: at (or after) cycle [at], thread
    [tid]'s control is redirected to [handler] (old pc pushed on its
    stack, handler returns with [ret]). *)
let schedule_signal m ~at ~tid ~handler =
  m.signal_queue <-
    List.sort compare ((at, tid, handler) :: m.signal_queue)

(** Move due signals into their thread's pending queue; returns true if
    any became pending. *)
let poll_signals m =
  let due, later = List.partition (fun (at, _, _) -> at <= m.cycles) m.signal_queue in
  m.signal_queue <- later;
  List.iter
    (fun (_, tid, h) ->
      match List.find_opt (fun t -> t.tid = tid) m.threads with
      | Some t when t.alive -> t.pending_signals <- t.pending_signals @ [ h ]
      | _ -> ())
    due;
  due <> []

(* ------------------------------------------------------------------ *)
(* Instruction cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Static (operand-shape) cost of an instruction: base cycles plus
   memory-operand read/write costs, including implicit stack traffic. *)
let static_cost (c : Cost.t) (i : Insn.t) : int =
  let base = Cost.base_cycles c i.opcode in
  let mem_srcs =
    match i.opcode with
    | Lea -> 0 (* address computation only *)
    | _ -> Array.fold_left (fun n o -> if Operand.is_mem o then n + 1 else n) 0 i.srcs
  in
  let mem_dsts =
    Array.fold_left (fun n o -> if Operand.is_mem o then n + 1 else n) 0 i.dsts
  in
  let implicit_r = if Opcode.implicit_stack_read i.opcode then 1 else 0 in
  let implicit_w = if Opcode.implicit_stack_write i.opcode then 1 else 0 in
  base
  + ((mem_srcs + implicit_r) * c.mem_read)
  + ((mem_dsts + implicit_w) * c.mem_write)

exception Bad_code of { pc : int; err : Decode.error }

(** Invalidate cached decodes for [len] bytes at [addr].  The RIO layer
    calls this after writing code (patching links, emitting fragments),
    the interpreter after self-modifying stores. *)
let invalidate_icache m ~addr ~len =
  (* decoded instructions are at most 13 bytes long, so decodes starting
     up to 13 bytes before the range may overlap it *)
  let lo = max 0 (addr - 13) in
  if len < 1 lsl Memory.page_bits then
    for pc = lo to addr + len - 1 do
      let s = Array.unsafe_get m.icache (pc land icache_mask) in
      (* the shared never-filled slot has is_pc = -1: never written *)
      if s.is_pc = pc && pc + s.is_len > addr then drop_islot s
    done
  else begin
    let hi = addr + len - 1 in
    let gens = m.icache_gens in
    let p1 = min (Array.length gens - 1) (hi lsr Memory.page_bits) in
    for p = lo lsr Memory.page_bits to p1 do
      gens.(p) <- gens.(p) + 1
    done
  end

let reset_hardware m =
  (* the shared never-filled slot is read-only: lines still pointing at
     it were never filled, and writing it would race between domains *)
  Array.iter (fun s -> if s != dummy_islot then drop_islot s) m.icache;
  Cost.reset_predictor m.pred

(** Reset the per-run machine state for serving a new request on a
    reused machine: threads, I/O ports, cycle and instruction counters,
    signals, and predictor go back to power-on.  Memory contents and
    cached decodes are left alone — the warm-reuse path (Rio) zeroes
    the pages the previous run wrote and restores the program image,
    invalidating cached decodes only where bytes changed. *)
let reset_for_run m =
  m.cycles <- 0;
  m.insns_retired <- 0;
  m.output <- [];
  m.input <- [];
  m.threads <- [];
  m.next_tid <- 0;
  m.signal_queue <- [];
  m.pending_smc <- [];
  Cost.reset_predictor m.pred
