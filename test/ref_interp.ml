(** Reference model of the SynISA executor: one [match] on opcode and
    operand shape per executed instruction, decoding every step.  The
    differential tests run programs on it and on {!Vm.Interp} and
    compare the final machine states; it is test-only code and is kept
    deliberately literal. *)

open Isa
open Vm
open Interp

open Machine

let ea (t : thread) (mm : Operand.mem) : int =
  let b = match mm.base with Some r -> get_reg t r | None -> 0 in
  let i = match mm.index with Some (r, s) -> get_reg t r * s | None -> 0 in
  Arith.wrap (b + i + mm.disp)

let src_value (m : Machine.t) (t : thread) (o : Operand.t) : int =
  match o with
  | Reg r -> get_reg t r
  | Imm i -> i land Arith.mask32
  | Mem mm -> Memory.read_u32 m.mem (ea t mm)
  | Target a -> a
  | Freg _ -> invalid_arg "src_value: freg"

let dst_write (m : Machine.t) (t : thread) (o : Operand.t) v : unit =
  match o with
  | Reg r -> set_reg t r v
  | Mem mm -> Memory.write_u32 m.mem (ea t mm) v
  | _ -> invalid_arg "dst_write"

let fp_value (m : Machine.t) (t : thread) (o : Operand.t) : float =
  match o with
  | Freg f -> get_freg t f
  | Mem mm -> Memory.read_f64 m.mem (ea t mm)
  | _ -> invalid_arg "fp_value"

let push (m : Machine.t) (t : thread) v =
  let sp = Arith.wrap (get_reg t Reg.Esp - 4) in
  set_reg t Reg.Esp sp;
  Memory.write_u32 m.mem sp v

let pop (m : Machine.t) (t : thread) : int =
  let sp = get_reg t Reg.Esp in
  let v = Memory.read_u32 m.mem sp in
  set_reg t Reg.Esp (Arith.wrap (sp + 4));
  v

let apply (m : Machine.t) (t : thread) (d : Operand.t array) (r : Arith.result)
    : unit =
  dst_write m t d.(0) (Arith.value r);
  t.eflags <- Arith.flags r

(* decode every step; code still becomes write-watched, as under the
   caching executor, so self-modification is recorded the same way *)
let fetch (m : Machine.t) pc : Insn.t * int =
  match Decode.full (Memory.fetch m.mem) pc with
  | Error err -> raise (Machine.Bad_code { pc; err })
  | Ok (insn, len) ->
      Memory.watch_code m.mem ~addr:pc ~len;
      (insn, len)

(* ------------------------------------------------------------------ *)

let run (m : Machine.t) (t : thread) ~budget ~emulate : stop =
  let deadline = m.cycles + budget in
  let result = ref None in
  (* Deliver control to [target]; returns [true] to keep running. *)
  let goto target =
    if target >= m.trap_base then begin
      t.pc <- target;
      result := Some (Trap target);
      false
    end
    else begin
      t.pc <- target;
      (* self-modified code: invalidate stale decodes at this safe
         point; under a runtime, also hand over for fragment flushing *)
      let smc_stop =
        if Memory.has_dirty m.mem then begin
          let ranges = Memory.take_dirty m.mem in
          List.iter
            (fun (lo, hi) -> Machine.invalidate_icache m ~addr:lo ~len:(hi - lo))
            ranges;
          if m.smc_trap then begin
            m.pending_smc <- ranges @ m.pending_smc;
            result := Some (Smc target);
            true
          end
          else false
        end
        else false
      in
      if smc_stop then false
      else begin
      (* signal check at control transfers only: cheap and sufficient *)
      if m.signal_queue <> [] then ignore (Machine.poll_signals m);
      match t.pending_signals with
      | [] -> true
      | h :: rest ->
          if m.intercept_signals then
            (* the runtime intercepts delivery: signals stay pending
               until its dispatcher reaches a safe point *)
            true
          else begin
            t.pending_signals <- rest;
            (* native delivery: push interrupted pc, redirect *)
            push m t t.pc;
            t.pc <- h;
            true
          end
      end
    end
  in
  let exec_one () : bool =
    let pc = t.pc in
    let insn, len = fetch m pc in
    m.cycles <-
      m.cycles + Machine.static_cost m.cost insn
      + (if emulate then m.cost.emu_overhead else 0);
    m.insns_retired <- m.insns_retired + 1;
    let next = pc + len in
    let fl = t.eflags in
    let s = insn.Insn.srcs and d = insn.Insn.dsts in
    match insn.Insn.opcode with
    (* --- data movement --- *)
    | Mov ->
        dst_write m t d.(0) (src_value m t s.(0));
        t.pc <- next;
        true
    | Movzx8 ->
        let v =
          match s.(0) with
          | Reg r -> get_reg t r land 0xFF
          | Mem mm -> Memory.read_u8 m.mem (ea t mm)
          | _ -> assert false
        in
        dst_write m t d.(0) v;
        t.pc <- next;
        true
    | Movzx16 ->
        let v =
          match s.(0) with
          | Reg r -> get_reg t r land 0xFFFF
          | Mem mm -> Memory.read_u16 m.mem (ea t mm)
          | _ -> assert false
        in
        dst_write m t d.(0) v;
        t.pc <- next;
        true
    | Lea ->
        (match s.(0) with
         | Mem mm -> dst_write m t d.(0) (ea t mm)
         | _ -> assert false);
        t.pc <- next;
        true
    | Push ->
        push m t (src_value m t s.(0));
        t.pc <- next;
        true
    | Pop ->
        let v = pop m t in
        dst_write m t d.(0) v;
        t.pc <- next;
        true
    | Xchg ->
        let a = src_value m t d.(0) and b = src_value m t d.(1) in
        dst_write m t d.(0) b;
        dst_write m t d.(1) a;
        t.pc <- next;
        true
    | Pushf ->
        push m t t.eflags;
        t.pc <- next;
        true
    | Popf ->
        t.eflags <- pop m t land Eflags.all_mask;
        t.pc <- next;
        true
    (* --- integer arithmetic --- *)
    | Add -> apply m t d (Arith.add (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Adc -> apply m t d (Arith.adc (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Sub -> apply m t d (Arith.sub (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Sbb -> apply m t d (Arith.sbb (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Inc -> apply m t d (Arith.inc (src_value m t s.(0)) fl); t.pc <- next; true
    | Dec -> apply m t d (Arith.dec (src_value m t s.(0)) fl); t.pc <- next; true
    | Neg -> apply m t d (Arith.neg (src_value m t s.(0)) fl); t.pc <- next; true
    | Cmp ->
        t.eflags <- Arith.flags (Arith.sub (src_value m t s.(0)) (src_value m t s.(1)) fl);
        t.pc <- next; true
    | Test ->
        t.eflags <- Arith.flags (Arith.land_ (src_value m t s.(0)) (src_value m t s.(1)) fl);
        t.pc <- next; true
    | And -> apply m t d (Arith.land_ (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Or -> apply m t d (Arith.lor_ (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Xor -> apply m t d (Arith.lxor_ (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Not ->
        dst_write m t d.(0) (lnot (src_value m t s.(0)) land Arith.mask32);
        t.pc <- next; true
    | Imul -> apply m t d (Arith.imul (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Idiv ->
        let eax = get_reg t Reg.Eax and src = src_value m t s.(0) in
        let q = Arith.idiv ~eax src fl in
        set_reg t Reg.Eax (Arith.value q);
        set_reg t Reg.Edx (Arith.irem ~eax src);
        t.eflags <- Arith.flags q;
        t.pc <- next; true
    | Shl -> apply m t d (Arith.shl (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Shr -> apply m t d (Arith.shr (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    | Sar -> apply m t d (Arith.sar (src_value m t s.(1)) (src_value m t s.(0)) fl); t.pc <- next; true
    (* --- control transfer --- *)
    | Jmp ->
        m.cycles <- m.cycles + Cost.direct_jump m.cost;
        goto (Operand.get_target s.(0))
    | Jcc c ->
        let taken = Cond.eval c fl in
        m.cycles <- m.cycles + Cost.cond_branch m.cost m.pred ~site:pc ~taken;
        goto (if taken then Operand.get_target s.(0) else next)
    | JmpInd ->
        let target = src_value m t s.(0) in
        m.cycles <- m.cycles + Cost.indirect_jump m.cost m.pred ~site:pc ~target;
        goto target
    | Call ->
        push m t next;
        Cost.ras_push m.pred next;
        m.cycles <- m.cycles + Cost.direct_jump m.cost;
        goto (Operand.get_target s.(0))
    | CallInd ->
        let target = src_value m t s.(0) in
        push m t next;
        Cost.ras_push m.pred next;
        m.cycles <- m.cycles + Cost.indirect_jump m.cost m.pred ~site:pc ~target;
        goto target
    | Ret ->
        let target = pop m t in
        m.cycles <- m.cycles + Cost.ret_branch m.cost m.pred ~target;
        goto target
    (* --- floating point --- *)
    | Fld ->
        (match d.(0) with
         | Freg f -> set_freg t f (fp_value m t s.(0))
         | _ -> assert false);
        t.pc <- next; true
    | Fst ->
        (match (d.(0), s.(0)) with
         | Mem mm, Freg f -> Memory.write_f64 m.mem (ea t mm) (get_freg t f)
         | _ -> assert false);
        t.pc <- next; true
    | Fmov ->
        (match (d.(0), s.(0)) with
         | Freg df, Freg sf -> set_freg t df (get_freg t sf)
         | _ -> assert false);
        t.pc <- next; true
    | Fadd | Fsub | Fmul | Fdiv ->
        (match d.(0) with
         | Freg f ->
             let a = get_freg t f and b = fp_value m t s.(0) in
             let v =
               match insn.Insn.opcode with
               | Fadd -> a +. b
               | Fsub -> a -. b
               | Fmul -> a *. b
               | _ -> a /. b
             in
             set_freg t f v
         | _ -> assert false);
        t.pc <- next; true
    | Fabs | Fneg | Fsqrt ->
        (match d.(0) with
         | Freg f ->
             let a = get_freg t f in
             let v =
               match insn.Insn.opcode with
               | Fabs -> Float.abs a
               | Fneg -> -.a
               | _ -> Float.sqrt a
             in
             set_freg t f v
         | _ -> assert false);
        t.pc <- next; true
    | Fcmp ->
        (match s.(0) with
         | Freg f ->
             t.eflags <- Arith.fcmp (get_freg t f) (fp_value m t s.(1)) fl
         | _ -> assert false);
        t.pc <- next; true
    | Cvtsi ->
        (match d.(0) with
         | Freg f -> set_freg t f (float_of_int (Arith.to_signed (src_value m t s.(0))))
         | _ -> assert false);
        t.pc <- next; true
    | Cvtfi ->
        (match s.(0) with
         | Freg f ->
             let v = get_freg t f in
             let iv =
               if Float.is_nan v || v >= 2147483648.0 || v < -2147483648.0 then
                 0x8000_0000 (* IA-32 integer-indefinite *)
               else Arith.of_signed (int_of_float v)
             in
             dst_write m t d.(0) iv
         | _ -> assert false);
        t.pc <- next; true
    (* --- system --- *)
    | Nop -> t.pc <- next; true
    | Hlt ->
        t.alive <- false;
        t.pc <- next;
        result := Some Halted;
        false
    | Out ->
        Machine.push_output m (src_value m t s.(0));
        t.pc <- next; true
    | In ->
        dst_write m t d.(0) (Machine.pop_input m);
        t.pc <- next; true
    | Ccall ->
        let id = Operand.get_imm s.(0) in
        t.pc <- next;
        result := Some (Ccall { id; resume = next });
        false
  in
  let rec loop () =
    if m.cycles >= deadline then Budget
    else
      match exec_one () with
      | true -> loop ()
      | false -> Option.get !result
      | exception Memory.Fault { addr; size; write } ->
          Fault
            (Printf.sprintf "memory %s of %d bytes at 0x%x"
               (if write then "write" else "read")
               size addr)
      | exception Arith.Division_by_zero -> Fault "division by zero"
      | exception Machine.Bad_code { pc; err } ->
          Fault (Printf.sprintf "bad code at 0x%x: %s" pc (Decode.error_to_string err))
  in
  loop ()
