(** The SynISA executor: runs one hardware thread until an event stops
    it.  Each decoded instruction is compiled once into a closure with
    its operands resolved.  In cached mode, compiled instructions are
    reused (native hardware fetch, and how code-cache contents run); in
    emulate mode every instruction is re-decoded, recompiled and charged
    the interpreter overhead (Table 1's first row). *)

type stop =
  | Halted
  | Fault of string
  | Trap of int                          (** control reached the runtime trap region *)
  | Ccall of { id : int; resume : int }  (** clean call emitted by the runtime *)
  | Budget                               (** cycle budget exhausted *)
  | Signal of int                        (** pending signal (interception enabled) *)
  | Smc of int                           (** executed code was overwritten; the
                                             runtime must flush, then resume at
                                             the carried address *)

val stop_to_string : stop -> string

val run : Machine.t -> Machine.thread -> budget:int -> emulate:bool -> stop
