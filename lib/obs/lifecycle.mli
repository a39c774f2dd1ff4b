(** The receipt-ladder snapshot under its historical name. The span
    recorder is {!Trace_ctx}; this module only re-exports its
    {!Trace_ctx.ladder} view. *)

type ladder = Trace_ctx.ladder

val ladder : Trace_ctx.t -> ladder
