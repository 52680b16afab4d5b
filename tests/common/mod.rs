//! Shared by the scenario suites: the typed client surface in the one-call
//! shapes their scripts read best in.
#![allow(dead_code)] // each suite uses its own subset

use std::time::Duration;

use tropic::core::{ApiError, TropicClient, TxnId, TxnOutcome, TxnRequest};
use tropic::model::Value;

/// Submits `proc_name(args)` and returns the transaction id.
pub fn submit(client: &TropicClient, proc_name: &str, args: Vec<Value>) -> Result<TxnId, ApiError> {
    Ok(client
        .submit_request(TxnRequest::new(proc_name).args(args))?
        .id())
}

/// Submits `proc_name(args)` and blocks up to `timeout` for its outcome.
pub fn submit_and_wait(
    client: &TropicClient,
    proc_name: &str,
    args: Vec<Value>,
    timeout: Duration,
) -> Result<TxnOutcome, ApiError> {
    client
        .submit_request(TxnRequest::new(proc_name).args(args))?
        .wait_timeout(timeout)
}
