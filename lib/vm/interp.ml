(** The SynISA executor.

    Runs one hardware thread until an event stops it.  Two modes:

    - {e cached} (the default): instructions are decoded once and reused
      from the machine's decoded-instruction cache — this models native
      hardware fetch/execute, and is also how code-cache contents run;
    - {e emulate}: every instruction is re-decoded and charged the
      interpreter-dispatch overhead — Table 1's "Emulation" row.

    Decoding compiles an instruction into an executor: a closure with
    its operand shapes, register numbers, immediates and fall-through pc
    resolved.  A step is an icache probe, the static cost charge and one
    executor call; in emulate mode the executor is compiled into the
    machine's scratch slot on every step.

    Control transfers into the runtime's trap region stop execution and
    return to the caller (the RIO dispatcher), as do clean calls,
    faults, halts, exhausted cycle budgets, and (when interception is
    enabled) signal delivery. *)

open Isa

type stop =
  | Halted                         (** the thread executed [hlt] *)
  | Fault of string                (** memory fault, division by zero, bad opcode *)
  | Trap of int                    (** control reached the runtime trap region *)
  | Ccall of { id : int; resume : int }  (** clean call emitted by the runtime *)
  | Budget                         (** cycle budget exhausted *)
  | Signal of int                  (** pending signal (interception enabled) *)
  | Smc of int                     (** executed code was written; runtime must
                                       flush stale fragments, then resume at
                                       the carried address *)

let stop_to_string = function
  | Halted -> "halted"
  | Fault s -> "fault: " ^ s
  | Trap a -> Printf.sprintf "trap 0x%x" a
  | Ccall { id; _ } -> Printf.sprintf "ccall %d" id
  | Budget -> "budget"
  | Signal h -> Printf.sprintf "signal -> 0x%x" h
  | Smc t -> Printf.sprintf "self-modified code (resume 0x%x)" t

open Machine

(* Executors leave the run loop by raising; one handler outside the
   loop turns the exception into the run's result. *)
exception Stop of stop

let halted = Stop Halted
let mask32 = Arith.mask32
let eax = Reg.number Reg.Eax
let edx = Reg.number Reg.Edx
let esp = Reg.number Reg.Esp

(* register numbers are resolved to 0..7 at compile time *)
let get (t : thread) r = Array.unsafe_get t.regs r
let set (t : thread) r v = Array.unsafe_set t.regs r v
let fget (t : thread) f = Array.unsafe_get t.fregs f
let fset (t : thread) f (v : float) = Array.unsafe_set t.fregs f v
let fnum (o : Operand.t) =
  match o with Freg f -> Reg.F.number f | _ -> invalid_arg "fp register operand"

(* ------------------------------------------------------------------ *)
(* Operand shapes                                                     *)
(* ------------------------------------------------------------------ *)

let compile_ea (mm : Operand.mem) : thread -> int =
  let disp = mm.disp in
  match (mm.base, mm.index) with
  | None, None ->
      let a = disp land mask32 in
      fun _ -> a
  | Some b, None ->
      let b = Reg.number b in
      fun t -> (get t b + disp) land mask32
  | None, Some (i, s) ->
      let i = Reg.number i in
      fun t -> ((get t i * s) + disp) land mask32
  | Some b, Some (i, s) ->
      let b = Reg.number b and i = Reg.number i in
      fun t -> (get t b + (get t i * s) + disp) land mask32

let compile_src (o : Operand.t) : Machine.t -> thread -> int =
  match o with
  | Reg r ->
      let r = Reg.number r in
      fun _ t -> get t r
  | Imm i ->
      let v = i land mask32 in
      fun _ _ -> v
  | Mem mm ->
      let ea = compile_ea mm in
      fun m t -> Memory.read_u32 m.mem (ea t)
  | Target _ | Freg _ -> invalid_arg "integer source"

let compile_dst (o : Operand.t) : Machine.t -> thread -> int -> unit =
  match o with
  | Reg r ->
      let r = Reg.number r in
      fun _ t v -> set t r (v land mask32)
  | Mem mm ->
      let ea = compile_ea mm in
      fun m t v -> Memory.write_u32 m.mem (ea t) v
  | _ -> invalid_arg "integer destination"

let push (m : Machine.t) (t : thread) v =
  let sp = (get t esp - 4) land mask32 in
  set t esp sp;
  Memory.write_u32 m.mem sp v

let pop (m : Machine.t) (t : thread) : int =
  let sp = get t esp in
  let v = Memory.read_u32 m.mem sp in
  set t esp ((sp + 4) land mask32);
  v

(* ------------------------------------------------------------------ *)
(* Control transfer                                                   *)
(* ------------------------------------------------------------------ *)

(* Deliver control to [target]. *)
let goto (m : Machine.t) (t : thread) target =
  t.pc <- target;
  if target >= m.trap_base then raise_notrace (Stop (Trap target));
  (* self-modified code: invalidate stale decodes at this safe point;
     under a runtime, also hand over for fragment flushing *)
  if Memory.has_dirty m.mem then begin
    let ranges = Memory.take_dirty m.mem in
    List.iter
      (fun (lo, hi) -> Machine.invalidate_icache m ~addr:lo ~len:(hi - lo))
      ranges;
    if m.smc_trap then begin
      m.pending_smc <- ranges @ m.pending_smc;
      raise_notrace (Stop (Smc target))
    end
  end;
  (* signal check at control transfers only: cheap and sufficient *)
  if m.signal_queue <> [] then ignore (Machine.poll_signals m);
  match t.pending_signals with
  | h :: rest when not m.intercept_signals ->
      (* native delivery: push interrupted pc, redirect; under a
         runtime, signals stay pending until its dispatcher reaches a
         safe point *)
      t.pending_signals <- rest;
      push m t t.pc;
      t.pc <- h
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

(* an {!Arith} result into register [r] and the flags *)
let[@inline] to_reg t r res =
  set t r (Arith.value res);
  t.eflags <- Arith.flags res

let[@inline] to_mem (m : Machine.t) t a res =
  Memory.write_u32 m.mem a (Arith.value res);
  t.eflags <- Arith.flags res

(* [d <- op d s] with flags; [op] is an {!Arith} function.  The source
   is read before the destination. *)
let binop op (d : Operand.t) (s : Operand.t) next : exec =
  match (d, s) with
  | Reg rd, Reg rs ->
      let rd = Reg.number rd and rs = Reg.number rs in
      fun _ t -> to_reg t rd (op (get t rd) (get t rs) t.eflags); t.pc <- next
  | Reg rd, Imm i ->
      let rd = Reg.number rd and i = i land mask32 in
      fun _ t -> to_reg t rd (op (get t rd) i t.eflags); t.pc <- next
  | Reg rd, _ ->
      let rd = Reg.number rd and src = compile_src s in
      fun m t ->
        let b = src m t in
        to_reg t rd (op (get t rd) b t.eflags);
        t.pc <- next
  | Mem mm, _ ->
      let ea = compile_ea mm and src = compile_src s in
      fun m t ->
        let b = src m t in
        let a = ea t in
        to_mem m t a (op (Memory.read_u32 m.mem a) b t.eflags);
        t.pc <- next
  | _ -> invalid_arg "binop destination"

(* [d <- op d] with flags *)
let unop op (d : Operand.t) next : exec =
  match d with
  | Reg r ->
      let r = Reg.number r in
      fun _ t -> to_reg t r (op (get t r) t.eflags); t.pc <- next
  | Mem mm ->
      let ea = compile_ea mm in
      fun m t ->
        let a = ea t in
        to_mem m t a (op (Memory.read_u32 m.mem a) t.eflags);
        t.pc <- next
  | _ -> invalid_arg "unop destination"

(* flags of [op a b]; nothing written *)
let flagop op (a : Operand.t) (b : Operand.t) next : exec =
  match (a, b) with
  | Reg ra, Reg rb ->
      let ra = Reg.number ra and rb = Reg.number rb in
      fun _ t -> t.eflags <- Arith.flags (op (get t ra) (get t rb) t.eflags); t.pc <- next
  | Reg ra, Imm i ->
      let ra = Reg.number ra and i = i land mask32 in
      fun _ t -> t.eflags <- Arith.flags (op (get t ra) i t.eflags); t.pc <- next
  | _ ->
      let sa = compile_src a and sb = compile_src b in
      fun m t ->
        let y = sb m t in
        t.eflags <- Arith.flags (op (sa m t) y t.eflags);
        t.pc <- next

(* unsigned 8/16-bit zero extension *)
let movzx ~mask ~read (d : Operand.t) (s : Operand.t) next : exec =
  match (d, s) with
  | Reg rd, Reg r ->
      let rd = Reg.number rd and r = Reg.number r in
      fun _ t -> set t rd (get t r land mask); t.pc <- next
  | Reg rd, Mem mm ->
      let rd = Reg.number rd and ea = compile_ea mm in
      fun m t -> set t rd (read m.mem (ea t)); t.pc <- next
  | _ -> invalid_arg "movzx operands"

(* [op] on an FP register and a register-or-memory source, specialised
   per operation so that register forms allocate no boxed float *)
let fp_binop (op : Opcode.t) (d : Operand.t) (s : Operand.t) next : exec =
  let f = fnum d in
  match (op, s) with
  | Fadd, Freg g -> let g = Reg.F.number g in fun _ t -> fset t f (fget t f +. fget t g); t.pc <- next
  | Fsub, Freg g -> let g = Reg.F.number g in fun _ t -> fset t f (fget t f -. fget t g); t.pc <- next
  | Fmul, Freg g -> let g = Reg.F.number g in fun _ t -> fset t f (fget t f *. fget t g); t.pc <- next
  | Fdiv, Freg g -> let g = Reg.F.number g in fun _ t -> fset t f (fget t f /. fget t g); t.pc <- next
  | _, Mem mm ->
      let ea = compile_ea mm in
      let rd m t = Memory.read_f64 m.mem (ea t) in
      (match op with
       | Fadd -> fun m t -> fset t f (fget t f +. rd m t); t.pc <- next
       | Fsub -> fun m t -> fset t f (fget t f -. rd m t); t.pc <- next
       | Fmul -> fun m t -> fset t f (fget t f *. rd m t); t.pc <- next
       | _ -> fun m t -> fset t f (fget t f /. rd m t); t.pc <- next)
  | _ -> invalid_arg "fp source"

let cvtfi v =
  if Float.is_nan v || v >= 2147483648.0 || v < -2147483648.0 then
    0x8000_0000 (* IA-32 integer-indefinite *)
  else Arith.of_signed (int_of_float v)

(** Compile the instruction at [pc], [len] bytes long. *)
let compile (insn : Insn.t) ~pc ~len : exec =
  let next = pc + len in
  let s = insn.srcs and d = insn.dsts in
  match insn.opcode with
  (* --- data movement --- *)
  | Mov -> (
      match (d.(0), s.(0)) with
      | Reg rd, Reg rs ->
          let rd = Reg.number rd and rs = Reg.number rs in
          fun _ t -> set t rd (get t rs); t.pc <- next
      | Reg rd, Imm i ->
          let rd = Reg.number rd and v = i land mask32 in
          fun _ t -> set t rd v; t.pc <- next
      | Reg rd, Mem mm ->
          let rd = Reg.number rd and ea = compile_ea mm in
          fun m t -> set t rd (Memory.read_u32 m.mem (ea t)); t.pc <- next
      | Mem mm, Reg rs ->
          let rs = Reg.number rs and ea = compile_ea mm in
          fun m t -> Memory.write_u32 m.mem (ea t) (get t rs); t.pc <- next
      | dop, sop ->
          let dst = compile_dst dop and src = compile_src sop in
          fun m t -> dst m t (src m t); t.pc <- next)
  | Movzx8 -> movzx ~mask:0xFF ~read:Memory.read_u8 d.(0) s.(0) next
  | Movzx16 -> movzx ~mask:0xFFFF ~read:Memory.read_u16 d.(0) s.(0) next
  | Lea -> (
      match (d.(0), s.(0)) with
      | Reg rd, Mem mm ->
          let rd = Reg.number rd and ea = compile_ea mm in
          fun _ t -> set t rd (ea t); t.pc <- next
      | _ -> invalid_arg "lea operands")
  | Push ->
      let src = compile_src s.(0) in
      fun m t -> push m t (src m t); t.pc <- next
  | Pop -> (
      match d.(0) with
      (* esp moves before the destination's address is formed *)
      | Reg r ->
          let r = Reg.number r in
          fun m t -> set t r (pop m t); t.pc <- next
      | dop ->
          let dst = compile_dst dop in
          fun m t ->
            let v = pop m t in
            dst m t v;
            t.pc <- next)
  | Xchg ->
      let ra = compile_src d.(0) and rb = compile_src d.(1) in
      let wa = compile_dst d.(0) and wb = compile_dst d.(1) in
      fun m t ->
        let a = ra m t in
        let b = rb m t in
        wa m t b;
        wb m t a;
        t.pc <- next
  | Pushf -> fun m t -> push m t t.eflags; t.pc <- next
  | Popf -> fun m t -> t.eflags <- pop m t land Eflags.all_mask; t.pc <- next
  (* --- integer arithmetic --- *)
  | Add -> binop Arith.add d.(0) s.(0) next
  | Adc -> binop Arith.adc d.(0) s.(0) next
  | Sub -> binop Arith.sub d.(0) s.(0) next
  | Sbb -> binop Arith.sbb d.(0) s.(0) next
  | And -> binop Arith.land_ d.(0) s.(0) next
  | Or -> binop Arith.lor_ d.(0) s.(0) next
  | Xor -> binop Arith.lxor_ d.(0) s.(0) next
  | Imul -> binop Arith.imul d.(0) s.(0) next
  | Shl -> binop Arith.shl d.(0) s.(0) next
  | Shr -> binop Arith.shr d.(0) s.(0) next
  | Sar -> binop Arith.sar d.(0) s.(0) next
  | Inc -> unop Arith.inc d.(0) next
  | Dec -> unop Arith.dec d.(0) next
  | Neg -> unop Arith.neg d.(0) next
  | Cmp -> flagop Arith.sub s.(0) s.(1) next
  | Test -> flagop Arith.land_ s.(0) s.(1) next
  | Not ->
      let src = compile_src s.(0) and dst = compile_dst d.(0) in
      fun m t -> dst m t (lnot (src m t) land mask32); t.pc <- next
  | Idiv ->
      let src = compile_src s.(0) in
      fun m t ->
        let b = src m t in
        let a = get t eax in
        let q = Arith.idiv ~eax:a b t.eflags in
        set t eax (Arith.value q);
        set t edx (Arith.irem ~eax:a b);
        t.eflags <- Arith.flags q;
        t.pc <- next
  (* --- control transfer --- *)
  | Jmp ->
      let target = Operand.get_target s.(0) in
      fun m t ->
        m.cycles <- m.cycles + Cost.direct_jump m.cost;
        goto m t target
  | Jcc c ->
      let target = Operand.get_target s.(0) in
      fun m t ->
        let taken = Cond.eval c t.eflags in
        m.cycles <- m.cycles + Cost.cond_branch m.cost m.pred ~site:pc ~taken;
        goto m t (if taken then target else next)
  | JmpInd ->
      let src = compile_src s.(0) in
      fun m t ->
        let target = src m t in
        m.cycles <- m.cycles + Cost.indirect_jump m.cost m.pred ~site:pc ~target;
        goto m t target
  | Call ->
      let target = Operand.get_target s.(0) in
      fun m t ->
        push m t next;
        Cost.ras_push m.pred next;
        m.cycles <- m.cycles + Cost.direct_jump m.cost;
        goto m t target
  | CallInd ->
      let src = compile_src s.(0) in
      fun m t ->
        let target = src m t in
        push m t next;
        Cost.ras_push m.pred next;
        m.cycles <- m.cycles + Cost.indirect_jump m.cost m.pred ~site:pc ~target;
        goto m t target
  | Ret ->
      fun m t ->
        let target = pop m t in
        m.cycles <- m.cycles + Cost.ret_branch m.cost m.pred ~target;
        goto m t target
  (* --- floating point --- *)
  | Fld -> (
      let f = fnum d.(0) in
      match s.(0) with
      | Freg g ->
          let g = Reg.F.number g in
          fun _ t -> fset t f (fget t g); t.pc <- next
      | Mem mm ->
          let ea = compile_ea mm in
          fun m t -> fset t f (Memory.read_f64 m.mem (ea t)); t.pc <- next
      | _ -> invalid_arg "fp source")
  | Fst -> (
      match d.(0) with
      | Mem mm ->
          let f = fnum s.(0) and ea = compile_ea mm in
          fun m t -> Memory.write_f64 m.mem (ea t) (fget t f); t.pc <- next
      | _ -> invalid_arg "fst destination")
  | Fmov ->
      let f = fnum d.(0) and g = fnum s.(0) in
      fun _ t -> fset t f (fget t g); t.pc <- next
  | (Fadd | Fsub | Fmul | Fdiv) as op -> fp_binop op d.(0) s.(0) next
  | Fabs ->
      let f = fnum d.(0) in
      fun _ t -> fset t f (Float.abs (fget t f)); t.pc <- next
  | Fneg ->
      let f = fnum d.(0) in
      fun _ t -> fset t f (-.fget t f); t.pc <- next
  | Fsqrt ->
      let f = fnum d.(0) in
      fun _ t -> fset t f (Float.sqrt (fget t f)); t.pc <- next
  | Fcmp -> (
      let f = fnum s.(0) in
      match s.(1) with
      | Freg g ->
          let g = Reg.F.number g in
          fun _ t -> t.eflags <- Arith.fcmp (fget t f) (fget t g) t.eflags; t.pc <- next
      | Mem mm ->
          let ea = compile_ea mm in
          fun m t ->
            t.eflags <- Arith.fcmp (fget t f) (Memory.read_f64 m.mem (ea t)) t.eflags;
            t.pc <- next
      | _ -> invalid_arg "fp source")
  | Cvtsi ->
      let f = fnum d.(0) and src = compile_src s.(0) in
      fun m t -> fset t f (float_of_int (Arith.to_signed (src m t))); t.pc <- next
  | Cvtfi ->
      let f = fnum s.(0) and dst = compile_dst d.(0) in
      fun m t -> dst m t (cvtfi (fget t f)); t.pc <- next
  (* --- system --- *)
  | Nop -> fun _ t -> t.pc <- next
  | Hlt ->
      fun _ t ->
        t.alive <- false;
        t.pc <- next;
        raise_notrace halted
  | Out ->
      let src = compile_src s.(0) in
      fun m t -> Machine.push_output m (src m t); t.pc <- next
  | In ->
      let dst = compile_dst d.(0) in
      fun m t -> dst m t (Machine.pop_input m); t.pc <- next
  | Ccall ->
      let stop = Stop (Ccall { id = Operand.get_imm s.(0); resume = next }) in
      fun _ t ->
        t.pc <- next;
        raise_notrace stop

(* ------------------------------------------------------------------ *)
(* Fetch                                                              *)
(* ------------------------------------------------------------------ *)

let fill (m : Machine.t) (slot : islot) pc ~gen =
  match Decode.full (Memory.fetch m.mem) pc with
  | Error err -> raise (Bad_code { pc; err })
  | Ok (insn, len) ->
      slot.is_pc <- pc;
      slot.is_gen <- gen;
      slot.is_len <- len;
      slot.is_cost <- Machine.static_cost m.cost insn;
      slot.is_exec <- compile insn ~pc ~len

(** Fetch-and-decode with caching.  Returns the (mutable, reused) cache
    slot — valid until the next fetch that maps to the same line. *)
let fetch (m : Machine.t) pc : islot =
  let slot = Array.unsafe_get m.icache (pc land icache_mask) in
  let gens = m.icache_gens in
  let gi = pc lsr Memory.page_bits in
  (* a pc outside memory never matches (slots are only filled after a
     successful decode) and faults in the decoder below *)
  let gen = if gi < Array.length gens then Array.unsafe_get gens gi else 0 in
  if slot.is_pc = pc && slot.is_gen = gen then slot
  else begin
    (* lines start out sharing the never-filled dummy slot, which every
       domain reads: a line gets its own slot on first fill *)
    let slot =
      if slot == dummy_islot then begin
        let s = fresh_islot () in
        Array.unsafe_set m.icache (pc land icache_mask) s;
        s
      end
      else slot
    in
    fill m slot pc ~gen;
    (* executed code becomes write-watched so self-modification
       is detected (code-cache / icache consistency) *)
    Memory.watch_code m.mem ~addr:pc ~len:slot.is_len;
    slot
  end

(* ------------------------------------------------------------------ *)

let run (m : Machine.t) (t : thread) ~budget ~emulate : stop =
  let deadline = m.cycles + budget in
  let overhead = if emulate then m.cost.emu_overhead else 0 in
  let step () =
    let slot =
      if emulate then begin
        (* the pure-emulation path re-decodes every time, which is the
           point of Table 1's first row *)
        fill m m.emu_slot t.pc ~gen:0;
        m.emu_slot
      end
      else fetch m t.pc
    in
    m.cycles <- m.cycles + slot.is_cost + overhead;
    m.insns_retired <- m.insns_retired + 1;
    slot.is_exec m t
  in
  match
    while m.cycles < deadline do
      step ()
    done
  with
  | () -> Budget
  | exception Stop s -> s
  | exception Memory.Fault { addr; size; write } ->
      Fault
        (Printf.sprintf "memory %s of %d bytes at 0x%x"
           (if write then "write" else "read")
           size addr)
  | exception Arith.Division_by_zero -> Fault "division by zero"
  | exception Bad_code { pc; err } ->
      Fault (Printf.sprintf "bad code at 0x%x: %s" pc (Decode.error_to_string err))
