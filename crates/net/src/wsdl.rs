//! WSDL-lite: remote interface descriptions for gateway queues.
//!
//! The paper's outgoing gateways "import the supplier's interface
//! definition from a WSDL file" (Sec. 2.1.2). We substitute a compact XML
//! dialect describing ports and their operations' input/output elements:
//!
//! ```xml
//! <definitions service="supplier">
//!   <port name="CapacityRequestPort">
//!     <operation name="checkCapacity" input="plantCapacityInfo"
//!                output="capacityResult"/>
//!   </port>
//! </definitions>
//! ```
//!
//! A gateway bound to a port accepts exactly the messages whose root
//! element is some operation's input; anything else raises an
//! interface-mismatch error (one of the paper's message-related error
//! classes).

use crate::error::TransportError;
use demaq_xml::{parse, NodeRef};

/// One operation of a port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    pub name: String,
    /// Root element name of request messages.
    pub input: String,
    /// Root element name of response messages (empty for one-way).
    pub output: Option<String>,
}

/// A parsed interface (one port of one service).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsdlInterface {
    pub service: String,
    pub port: String,
    pub operations: Vec<Operation>,
}

impl WsdlInterface {
    /// Parse the definitions document and select `port`.
    pub fn parse(wsdl_xml: &str, port: &str) -> Result<WsdlInterface, String> {
        let doc = parse(wsdl_xml).map_err(|e| format!("invalid WSDL: {e}"))?;
        let defs = doc.document_element().ok_or("missing <definitions> root")?;
        if defs.name().map(|q| q.local.as_str()) != Some("definitions") {
            return Err("root element must be <definitions>".into());
        }
        let service = defs.attribute("service").unwrap_or_default();
        let port_node = defs
            .children()
            .filter(|c| c.name().map(|q| q.local == "port").unwrap_or(false))
            .find(|c| c.attribute("name") == Some(port))
            .ok_or_else(|| format!("port `{port}` not found"))?;
        let mut operations = Vec::new();
        for op in port_node.children() {
            if op.name().map(|q| q.local != "operation").unwrap_or(true) {
                continue;
            }
            let name = op.attribute("name").ok_or("operation without name")?;
            let input = op.attribute("input").ok_or("operation without input")?;
            let output = op.attribute("output").filter(|o| !o.is_empty());
            operations.push(Operation {
                name: name.to_string(),
                input: input.to_string(),
                output: output.map(str::to_string),
            });
        }
        if operations.is_empty() {
            return Err(format!("port `{port}` declares no operations"));
        }
        Ok(WsdlInterface {
            service: service.to_string(),
            port: port.to_string(),
            operations,
        })
    }

    /// Check an outgoing message body against the declared operations.
    pub fn validate_outgoing(&self, body_root: &NodeRef) -> Result<&Operation, TransportError> {
        let root_name = body_root
            .name()
            .map(|q| q.local.clone())
            .unwrap_or_else(|| "#non-element".to_string());
        self.operations
            .iter()
            .find(|op| op.input == root_name)
            .ok_or_else(|| {
                TransportError::InterfaceMismatch(format!(
                    "element `{root_name}` matches no operation of port `{}` (expected one of: {})",
                    self.port,
                    self.operations
                        .iter()
                        .map(|o| o.input.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WSDL: &str = r#"
        <definitions service="supplier">
          <port name="CapacityRequestPort">
            <operation name="checkCapacity" input="plantCapacityInfo" output="capacityResult"/>
            <operation name="placeOrder" input="supplierOrder"/>
          </port>
          <port name="OtherPort">
            <operation name="noop" input="nothing"/>
          </port>
        </definitions>"#;

    #[test]
    fn parse_and_select_port() {
        let iface = WsdlInterface::parse(WSDL, "CapacityRequestPort").unwrap();
        assert_eq!(iface.service, "supplier");
        assert_eq!(iface.operations.len(), 2);
        assert_eq!(
            iface.operations[0].output.as_deref(),
            Some("capacityResult")
        );
        assert_eq!(iface.operations[1].output, None);
    }

    #[test]
    fn unknown_port_rejected() {
        assert!(WsdlInterface::parse(WSDL, "NoSuchPort").is_err());
    }

    #[test]
    fn validate_messages() {
        let iface = WsdlInterface::parse(WSDL, "CapacityRequestPort").unwrap();
        let ok =
            demaq_xml::parse("<plantCapacityInfo><requestID>1</requestID></plantCapacityInfo>")
                .unwrap();
        let op = iface
            .validate_outgoing(&ok.document_element().unwrap())
            .unwrap();
        assert_eq!(op.name, "checkCapacity");

        let bad = demaq_xml::parse("<unrelated/>").unwrap();
        let err = iface
            .validate_outgoing(&bad.document_element().unwrap())
            .unwrap_err();
        assert_eq!(err.kind_element(), "interfaceMismatch");
    }

    #[test]
    fn malformed_wsdl_rejected() {
        assert!(WsdlInterface::parse("<nope/>", "P").is_err());
        assert!(WsdlInterface::parse("not xml", "P").is_err());
        assert!(WsdlInterface::parse("<definitions><port name='P'/></definitions>", "P").is_err());
    }
}
