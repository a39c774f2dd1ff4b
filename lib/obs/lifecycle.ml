type ladder = Trace_ctx.ladder

let ladder = Trace_ctx.ladder
