//! The dynamic evaluation context: external variable bindings and the host
//! hooks a plan calls out to.
//!
//! There is no static context. Lowering resolves lexical variables to frame
//! slots, and a name that is not bound lexically stays a by-name lookup in
//! [`DynamicContext::variables`]; function names are checked against the
//! builtin table and [`HostFunctions::call`] when the call runs, which
//! keeps the two registries in one place.

use crate::error::{Error, Result};
use crate::value::Sequence;
use demaq_xml::QName;
use std::collections::HashMap;
use std::sync::Arc;

/// Host hooks: extension functions (the engine's `qs:` library) and the
/// `fn:collection`/`fn:doc` data sources.
///
/// A fresh host is typically constructed per message-processing transaction,
/// closing over the current message, queue handles, and slice context —
/// which is how `qs:message()` and friends get their implicit arguments.
pub trait HostFunctions: Send + Sync {
    /// Invoke an extension function (any function with a namespace prefix
    /// other than `fn`/`xs`). Return `None` to signal "unknown function".
    fn call(&self, name: &QName, args: &[Sequence]) -> Option<Result<Sequence>>;

    /// `fn:collection(name)` — master data access (paper Sec. 3.5.2 uses
    /// `collection("crm")` for price lists).
    fn collection(&self, name: &str) -> Result<Sequence> {
        Err(Error::dynamic(format!("no collection `{name}` available")))
    }

    /// `fn:doc(uri)`.
    fn doc(&self, uri: &str) -> Result<Sequence> {
        Err(Error::dynamic(format!("no document `{uri}` available")))
    }

    /// `fn:current-dateTime()` — epoch milliseconds of the engine's clock.
    /// Defaults to 0 so pure-library use stays deterministic.
    fn current_date_time_ms(&self) -> i64 {
        0
    }

    /// Answer a recognized aggregate read (`Plan::AggregateRead`) from a
    /// materialized cell; `id` numbers the shape in the catalog the plan
    /// was lowered into. `None` declines — the evaluator then runs the
    /// embedded fallback, the reference rescan. Hosts without an
    /// incremental registry keep this default.
    fn aggregate(
        &self,
        _id: crate::aggregate::AggId,
        _spec: &crate::aggregate::AggregateSpec,
    ) -> Option<Result<Sequence>> {
        None
    }
}

/// A host providing nothing: standalone XQuery evaluation.
pub struct NoHost;
impl HostFunctions for NoHost {
    fn call(&self, _name: &QName, _args: &[Sequence]) -> Option<Result<Sequence>> {
        None
    }
}

/// Dynamic context: external variable bindings plus the host hooks.
#[derive(Clone)]
pub struct DynamicContext {
    pub variables: HashMap<String, Sequence>,
    pub host: Arc<dyn HostFunctions>,
}

impl DynamicContext {
    pub fn new(host: Arc<dyn HostFunctions>) -> Self {
        DynamicContext {
            variables: HashMap::new(),
            host,
        }
    }

    /// Bind an external variable visible to the query as `$name`.
    pub fn bind(&mut self, name: impl Into<String>, value: Sequence) -> &mut Self {
        self.variables.insert(name.into(), value);
        self
    }
}

impl Default for DynamicContext {
    fn default() -> Self {
        DynamicContext::new(Arc::new(NoHost))
    }
}
